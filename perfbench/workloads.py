"""The benchmark workloads and the correctness gate.

Each workload is exhaustive and deterministic: the seed only permutes the
order in which its checks run, never which checks run or what they must
answer.  A pass yields one outcome per check, saying whether the verdict or
homology answer matched its expected value.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace

LAYERS = ("perms", "simplicial", "cubes", "simpcube", "triangulate", "cobar",
          "loopgroup", "szczarba", "chains", "snf", "verify")

# Every check of every suite is expected to pass; a missing or extra check
# also counts as a mismatch, so a suite cannot pass by checking less.
EXPECTED_CHECKS = {
    "combinatorics": ("p-bijection-parity", "psi-bijection",
                      "xi-vs-value-split", "phi-translation",
                      "assignment-roundtrip", "hereditary-paths"),
    "simplicial": tuple(f"{kind}-{name}"
                        for name in ("Delta2", "I", "S2", "S3", "D4sk1",
                                     "TwoLoopsCell")
                        for kind in ("identities", "chains")),
    "cubical": tuple(f"standard-cube-{n}" for n in range(5)) + (
        "product-1x1", "product-2x1", "cobar-S2", "cobar-chains-S2",
        "cobar-D4sk1", "cobar-chains-D4sk1"),
    "cube-lemmas": ("simplicial-identities", "face-pushforward",
                    "degeneracy-pushforward"),
    "triangulation": tuple(f"cube-{n}" for n in range(4)) + (
        "product-1x1", "cobar-S2", "product-splitting",
        "product-splitting-chains"),
    "cobar-iso": ("iso-S2", "iso-S3", "iso-D4sk1"),
    "szczarba-contract": ("contract-S2", "twisting-S2", "contract-S3",
                          "twisting-S3", "contract-D4sk1", "twisting-D4sk1",
                          "rival-convention-fails"),
    "main-theorem": tuple(f"{kind}-{name}" for name in ("S2", "D4sk1")
                          for kind in ("glue", "simplicial", "multiplicative",
                                       "comparison", "cochain-map",
                                       "comultiplicative")),
}
SUITES = tuple(EXPECTED_CHECKS)

# Loop space of D4sk1 (the 4-simplex modulo its 1-skeleton, a wedge of six
# 2-spheres): by Bott-Samelson its homology is the tensor algebra on six
# degree-1 classes, ranks 1, 6, 36, torsion-free.  The simplicial 4-cube is
# contractible.  Entries are (betti number, torsion) per degree; every degree
# asked for lies below the top degree the complex carries.
LOOP_HOMOLOGY = {
    "omega-D4sk1": ((1, ()), (6, ()), (36, ())),
    "cobar-chains-D4sk1": ((1, ()), (6, ()), (36, ())),
    "simplicial-cube-4": ((1, ()), (0, ()), (0, ()), (0, ())),
}


class LibraryMissing(RuntimeError):
    pass


def load_library(root: Path) -> SimpleNamespace:
    """Import the layer modules from ``root/src``, never from elsewhere."""
    src = root / "src"
    if not (src / "cobarlab" / "__init__.py").is_file():
        raise LibraryMissing(f"no cobarlab sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("cobarlab")
    if Path(package.__file__).resolve().parent != (src / "cobarlab").resolve():
        raise LibraryMissing(f"cobarlab imported from {package.__file__}, "
                             f"not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"cobarlab.{name}")
                              for name in LAYERS})


class Outcome(SimpleNamespace):
    """``check`` names what was checked, ``ok`` whether it matched."""


# ----- workloads ---------------------------------------------------------------------


class SuiteWorkload:
    """Runs whole ``verify`` suites and reads their Report objects."""

    def __init__(self, name, suites, fixtures, loop_fixtures=()):
        self.name = name
        self.suites = suites
        self.fixtures = fixtures
        self.loop_fixtures = loop_fixtures

    def setup(self, lib):
        """Objects the suites build before their first check."""
        ctx = {name: lib.simplicial.fixture(name) for name in self.fixtures}
        for name in self.loop_fixtures:
            group = lib.loopgroup.LoopGroup(ctx[name])
            ctx[f"provider-{name}"] = lib.szczarba.SzProvider(group)
        for name in ("S2", "D4sk1"):
            ctx[f"cobar-{name}"] = lib.cobar.CobarSet(ctx[name])
        return ctx

    def run_pass(self, lib, ctx, rng):
        """Run every suite once, in seed order; return (outcomes, seconds
        per suite)."""
        outcomes = []
        seconds = {}
        order = list(self.suites)
        rng.shuffle(order)
        for suite in order:
            start = time.perf_counter()
            report = lib.verify.run_suite(suite)
            seconds[suite] = time.perf_counter() - start
            outcomes.extend(suite_outcomes(suite, report))
        return outcomes, seconds


def suite_outcomes(suite, report):
    status = {c.name: c.status for c in report.checks}
    expected = EXPECTED_CHECKS[suite]
    out = [Outcome(check=f"{suite}/{name}", ok=status.get(name) == "pass",
                   got=status.get(name, "missing"), want="pass")
           for name in expected]
    out += [Outcome(check=f"{suite}/{name}", ok=False, got=status[name],
                    want="absent")
            for name in sorted(set(status) - set(expected))]
    return out


class HomologyWorkload:
    """Integral homology of the two cobar models of the loop space of D4sk1
    and of the simplicial 4-cube."""

    name = "loop-homology"

    def setup(self, lib):
        sset = lib.simplicial.fixture("D4sk1")
        return {"D4sk1": sset, "cobar-D4sk1": lib.cobar.CobarSet(sset),
                "cube-4": lib.simpcube.SimplicialCube(4)}

    def complexes(self, lib, ctx):
        """Name -> function making each complex, to the degree it must carry."""
        return {
            "omega-D4sk1": lambda: lib.cobar.omega_complex(ctx["D4sk1"], 3),
            "cobar-chains-D4sk1":
                lambda: lib.cubes.cubical_chains(ctx["cobar-D4sk1"], 3),
            "simplicial-cube-4":
                lambda: lib.simplicial.simplicial_chains(ctx["cube-4"], 4),
        }

    def run_pass(self, lib, ctx, rng):
        outcomes = []
        complexes = list(self.complexes(lib, ctx).items())
        rng.shuffle(complexes)
        for name, build in complexes:
            cx = build()
            degrees = list(range(len(LOOP_HOMOLOGY[name])))
            rng.shuffle(degrees)
            for n in degrees:
                h = cx.homology(n)
                got = (h.betti, tuple(h.torsion))
                want = LOOP_HOMOLOGY[name][n]
                outcomes.append(Outcome(check=f"{name}/H{n}", ok=got == want,
                                        got=got, want=want))
        return outcomes, {}


WORKLOADS = {
    "structure": SuiteWorkload(
        "structure",
        ("combinatorics", "simplicial", "cubical", "cube-lemmas",
         "triangulation"),
        ("Delta2", "I", "S2", "S3", "D4sk1", "TwoLoopsCell")),
    "loop-homology": HomologyWorkload(),
    "loop-comparison": SuiteWorkload(
        "loop-comparison",
        ("cobar-iso", "szczarba-contract", "main-theorem"),
        ("S2", "S3", "D4sk1", "TwoLoopsCell"),
        loop_fixtures=("S2", "S3", "D4sk1")),
}


# ----- negative controls ---------------------------------------------------------------


def negative_controls(lib):
    """The four negative controls; each must fail and carry a witness."""
    verdicts = {}

    bad = lib.simplicial.fixture("Delta2")
    bad.faces[("0.1.2", 0)] = bad.faces[("0.1.2", 2)]
    verdicts["corrupted-face-table"] = bad.validate_presentation(3)

    _, _, _, tmap = lib.triangulate.triangulation_map(
        lib.cubes.StandardCube(2), 3)
    top = lib.cubes.CubeMorphism.identity(2)
    tmap.mapping[top] = {k: -c for k, c in tmap.mapping[top].items()}
    verdicts["sign-flipped-triangulation"] = lib.chains.check_chain_map(tmap)

    swapped = lib.szczarba.SwappedSzProvider(
        lib.loopgroup.LoopGroup(lib.simplicial.fixture("D4sk1")))
    verdicts["swapped-operator-word"] = lib.szczarba.contract_check(swapped, 2)

    sc = lib.simpcube
    family = {pi: sc.u_pi(pi) for pi in lib.perms.all_perms(2)}
    family[(2, 1)] = sc.partition_degeneracy(
        sc.partition_face(sc.u_pi((2, 1)), 2), 1)
    _, verdicts["corrupted-glued-family"] = sc.extend_family(
        2, family, sc.SimplicialCube(2))

    return [Outcome(check=f"negative-control/{name}",
                    ok=not v.ok and v.witness is not None,
                    got="pass" if v.ok else "fail", want="fail with witness")
            for name, v in verdicts.items()]
