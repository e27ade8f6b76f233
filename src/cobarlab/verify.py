"""Verification suites: named batches of exact identity checks with reports.

Each suite is a :class:`Suite` row in :data:`SUITES`: its named checks at
a degree d, the default d, and the least d it accepts.  Running a suite
produces a :class:`Report` with the degree, the set-up time, per-check
status, a witness for any failure, and timing.  Reports render both as
human-readable text and as a JSON-compatible dictionary, and the two
renderings always agree on statuses.  :func:`degree` resolves a requested
``max_dim`` and refuses a negative one, or one below the suite's least:

=================  =======  =====  ==========================================
suite              default  least  what runs at degree d
=================  =======  =====  ==========================================
combinatorics      --       0      fixed sizes; d is not used
simplicial         5        0      identities to d; chains to 3
cubical            4        0      standard cubes 0..d; products, cobar sets
                                   and their chains to min(3, d)
cube-lemmas        4        1      all three lemmas to d
triangulation      4        0      cube-n for n < min(d, 4); the rest fixed
cobar-iso          3        1      both cobar models to d
szczarba-contract  2        1      contract to d, twisting map to d + 1
main-theorem       2        1      glue, simplicial and word map to d;
                                   multiplicative to max(1, d - 1)
=================  =======  =====  ==========================================
"""

from __future__ import annotations

import time
from collections.abc import Callable

from . import loopgroup, szczarba
from .chains import (check_chain_map, check_coalgebra_map, check_quasi_iso)
from .cobar import CobarSet, compare_models
from .cubes import CubeMorphism, ProductCubicalSet, StandardCube, cubical_chains
from .perms import (Shuffle, add_assignment, all_index_seqs, all_perms,
                    all_shuffles, compose, invert, inversions, is_index_seq,
                    p, p_inv, phi, phi_perm, psi, psi_inv, remove_assignment,
                    sz_shuffle_split, transposition, xi)
from .simpcube import (SimplicialCube, common_bars, hereditary_path,
                       lambda_star, partition_degeneracy, partition_face, u_pi)
from .simplicial import fixture, simplicial_chains
from .triangulate import (TriangulatedCubicalSet, product_split_backward,
                          product_split_forward, triangulation_map)
from .verdict import Frozen, Record, Verdict


class CheckResult(Record):
    __slots__ = _fields = ("name", "status", "witness", "millis")

    def __init__(self, name: str, status: str, witness: object,
                 millis: float):
        self.name = name
        self.status = status  # "pass" or "fail"
        self.witness = witness
        self.millis = millis


class Report(Record):
    __slots__ = _fields = ("suite", "degree", "setup_ms", "checks")

    def __init__(self, suite: str, degree: int | None = None,
                 setup_ms: float = 0.0, checks: list | None = None):
        self.suite = suite
        self.degree = degree  # None: the checks have fixed sizes
        self.setup_ms = setup_ms  # building the checks, before the first runs
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def render(self) -> str:
        at = "" if self.degree is None else f" at degree {self.degree}"
        lines = [f"suite {self.suite}: " + ("PASS" if self.ok else "FAIL")
                 + f"{at} (setup {self.setup_ms:.0f} ms)"]
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append(f"  [{c.status:4s}] {c.name} ({c.millis:.0f} ms)")
            if c.status == "fail":
                lines.append(f"         witness: {c.witness!r}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        checks = []
        for c in sorted(self.checks, key=lambda c: c.name):
            item = {"name": c.name, "status": c.status,
                    "millis": round(c.millis, 3)}
            if c.status == "fail":
                item["witness"] = repr(c.witness)
            checks.append(item)
        return {"suite": self.suite, "degree": self.degree,
                "setup_ms": round(self.setup_ms, 3), "checks": checks}


def run_checks(suite: str, checks, d: int | None) -> Report:
    """Run the named checks ``checks(d)`` gives; the call itself is the
    report's set-up time."""
    start = time.perf_counter()
    named_checks = checks(d)
    report = Report(suite, d, (time.perf_counter() - start) * 1000)
    for name, fn in named_checks:
        start = time.perf_counter()
        verdict = fn()
        millis = (time.perf_counter() - start) * 1000
        report.checks.append(CheckResult(
            name, "pass" if verdict.ok else "fail",
            None if verdict.ok else verdict.witness, millis))
    return report


# ----- combinatorics ----------------------------------------------------------------


def check_p_bijection(n_max: int = 6) -> Verdict:
    for n in range(n_max + 1):
        seen = set()
        for iseq in all_index_seqs(n):
            pi = p(iseq)
            if p_inv(pi) != iseq:
                return Verdict.failed({"check": "roundtrip", "iseq": iseq})
            if inversions(pi) % 2 != sum(iseq) % 2:
                return Verdict.failed({"check": "parity", "iseq": iseq})
            seen.add(pi)
        if seen != set(all_perms(n)):
            return Verdict.failed({"check": "surjectivity", "n": n})
    if p((4, 2, 0, 1, 0)) != (5, 3, 1, 4, 2):
        return Verdict.failed({"check": "worked example"})
    return Verdict.passed()


def check_psi_bijection(n_max: int = 6) -> Verdict:
    for n in range(n_max + 1):
        for k in range(n + 1):
            seen = set()
            for sh in all_shuffles(k, n - k):
                for sigma in all_perms(k):
                    for tau in all_perms(n - k):
                        pi = psi(sh, sigma, tau)
                        if psi_inv(pi, k) != (sh, sigma, tau):
                            return Verdict.failed(
                                {"check": "roundtrip", "input": (sh, sigma, tau)})
                        seen.add(pi)
            if seen != set(all_perms(n)):
                return Verdict.failed({"check": "surjectivity", "n": n, "k": k})
    if psi(Shuffle((2, 5), (1, 3, 4)), (2, 1), (1, 3, 2)) != (3, 2, 5, 4, 1):
        return Verdict.failed({"check": "worked example (2,3)"})
    return Verdict.passed()


def check_xi_split(n_max: int = 5) -> Verdict:
    """p carries the face translations of Szczarba's index-sequence
    identities to the permutation ones: xi matches the value-threshold split
    (top face), the first entry and the rest give the bottom face's
    assignment, and a descent swap is an adjacent transposition."""
    for n in range(1, n_max + 1):
        for iseq in all_index_seqs(n):
            sh, jseq, kseq = xi(iseq)
            if not (is_index_seq(jseq) and is_index_seq(kseq)):
                return Verdict.failed({"check": "shape", "iseq": iseq})
            pi = p(iseq)
            got = sz_shuffle_split(pi)
            if got != (sh, p(jseq), p(kseq)):
                return Verdict.failed({"check": "agreement", "iseq": iseq,
                                       "xi": (sh, jseq, kseq), "split": got})
            if (pi[0] != iseq[0] + 1
                    or remove_assignment(pi, 1) != p(iseq[1:])):
                return Verdict.failed({"check": "bottom face", "iseq": iseq})
            for k in range(1, n):
                if iseq[k - 1] > iseq[k]:
                    swapped = (iseq[:k - 1] + (iseq[k], iseq[k - 1] - 1)
                               + iseq[k + 1:])
                    if p(swapped) != compose(pi, transposition(n, k)):
                        return Verdict.failed(
                            {"check": "descent swap", "iseq": iseq, "k": k})
    return Verdict.passed()


def check_phi_agreement(n_max: int = 5) -> Verdict:
    for n in range(1, n_max + 1):
        for iseq in all_index_seqs(n):
            for pos in range(n + 1):
                jseq, q = phi(iseq, pos)
                tpi, qp = phi_perm(p(iseq), pos)
                if (p(jseq), q) != (tpi, qp):
                    return Verdict.failed({"iseq": iseq, "pos": pos,
                                           "phi": (jseq, q),
                                           "phi_perm": (tpi, qp)})
    return Verdict.passed()


def check_assignment_roundtrip(n_max: int = 6) -> Verdict:
    for n in range(1, n_max + 1):
        for pi in all_perms(n):
            for i in range(1, n + 1):
                tpi = remove_assignment(pi, i)
                if add_assignment(tpi, i, pi[i - 1]) != pi:
                    return Verdict.failed({"pi": pi, "i": i})
    return Verdict.passed()


def _path_valid(pi, rho) -> bool:
    path = hereditary_path(pi, rho)
    if path[0] != tuple(pi) or path[-1] != tuple(rho):
        return False
    bars = set(common_bars(pi, rho))
    for cur, nxt in zip(path, path[1:]):
        diff = [k for k in range(len(pi)) if cur[k] != nxt[k]]
        if len(diff) != 2 or diff[1] != diff[0] + 1:
            return False
        if cur[diff[0]] != nxt[diff[1]] or cur[diff[1]] != nxt[diff[0]]:
            return False
    for inter in path:
        if not bars <= set(common_bars(pi, inter)):
            return False
    return True


def check_hereditary(n_max: int = 4) -> Verdict:
    for n in range(1, n_max + 1):
        for pi in all_perms(n):
            for rho in all_perms(n):
                if not _path_valid(pi, rho):
                    return Verdict.failed({"pi": pi, "rho": rho})
    # a six-letter pair with several common prefix blocks
    pi, rho = (2, 1, 3, 5, 4, 6), (1, 2, 3, 4, 5, 6)
    if not _path_valid(pi, rho):
        return Verdict.failed({"pi": pi, "rho": rho})
    return Verdict.passed()


def combinatorics_checks(_):
    return [
        ("p-bijection-parity", check_p_bijection),
        ("psi-bijection", check_psi_bijection),
        ("xi-vs-value-split", check_xi_split),
        ("phi-translation", check_phi_agreement),
        ("assignment-roundtrip", check_assignment_roundtrip),
        ("hereditary-paths", check_hereditary),
    ]


# ----- simplicial -------------------------------------------------------------------


SIMPLICIAL_FIXTURES = ("Delta2", "I", "S2", "S3", "D4sk1", "TwoLoopsCell")


def simplicial_checks(d):
    checks = []
    for name in SIMPLICIAL_FIXTURES:
        sset = fixture(name)
        checks.append((f"identities-{name}",
                       lambda s=sset: s.validate_presentation(d)))
        checks.append((f"chains-{name}",
                       lambda s=sset: _chains_ok(simplicial_chains(s, 3))))
    return checks


def _chains_ok(cx) -> Verdict:
    """d^2 = 0 and the coalgebra identities on a built chain complex."""
    v = cx.check_d_squared()
    return v if not v.ok else cx.check_coalgebra()


# ----- cubical ----------------------------------------------------------------------


def cubical_checks(d):
    top = min(3, d)  # products and cobar sets stop at 3
    checks = []
    for n in range(d + 1):
        checks.append((f"standard-cube-{n}",
                       lambda n=n: StandardCube(n).validate(min(n + 1, d))))
    prod11 = ProductCubicalSet(StandardCube(1), StandardCube(1))
    prod21 = ProductCubicalSet(StandardCube(2), StandardCube(1))
    checks.append(("product-1x1", lambda: prod11.validate(top)))
    checks.append(("product-2x1", lambda: prod21.validate(top)))
    for name in ("S2", "D4sk1"):
        # one cobar set per check, so the faces stored while validating are
        # freed before the chain checks run
        sset = fixture(name)
        checks.append((f"cobar-{name}",
                       lambda s=sset: CobarSet(s).validate(top)))
        checks.append((f"cobar-chains-{name}", lambda s=sset:
                       _chains_ok(cubical_chains(CobarSet(s), top))))
    return checks


# ----- simplicial-cube lemmas -------------------------------------------------------


def check_cube_simplicial_identities(n_max: int = 4) -> Verdict:
    for n in range(n_max + 1):
        v = SimplicialCube(n).validate(n + 1)
        if not v.ok:
            return v
    return Verdict.passed()


def check_face_lemma(n_max: int = 4) -> Verdict:
    """Bottom and top faces of top simplices are pushforwards along the
    coordinate inclusions recorded by the removed assignment."""
    for n in range(1, n_max + 1):
        for pi in all_perms(n - 1):
            for i in range(1, n + 1):
                tpi = add_assignment(pi, 1, i)
                lhs = partition_face(u_pi(tpi), 0)
                rhs = lambda_star(CubeMorphism.delta(n, 1, i), u_pi(pi))
                if lhs != rhs:
                    return Verdict.failed({"part": "bottom", "pi": pi, "i": i})
                tpi = add_assignment(pi, n, i)
                lhs = partition_face(u_pi(tpi), n)
                rhs = lambda_star(CubeMorphism.delta(n, 0, i), u_pi(pi))
                if lhs != rhs:
                    return Verdict.failed({"part": "top", "pi": pi, "i": i})
    return Verdict.passed()


def check_degeneracy_lemma(n_max: int = 4) -> Verdict:
    """Degeneracies of top simplices are pushforwards along the coordinate
    projections and foldings."""
    for n in range(n_max):
        for pi in all_perms(n + 1):
            inv = invert(pi)
            for i in range(1, n + 2):
                j = inv[i - 1]
                tpi = remove_assignment(pi, j)
                lhs = partition_degeneracy(u_pi(tpi), j - 1)
                rhs = lambda_star(CubeMorphism.sigma(n + 1, i), u_pi(pi))
                if lhs != rhs:
                    return Verdict.failed({"part": "projection", "pi": pi,
                                           "i": i})
            for i in range(1, n + 1):
                tpi, q = phi_perm(pi, i)
                lhs = partition_degeneracy(u_pi(tpi), q)
                rhs = lambda_star(CubeMorphism.gamma(n + 1, i), u_pi(pi))
                if lhs != rhs:
                    return Verdict.failed({"part": "folding", "pi": pi,
                                           "i": i})
    return Verdict.passed()


def cube_lemmas_checks(d):
    return [
        ("simplicial-identities", lambda: check_cube_simplicial_identities(d)),
        ("face-pushforward", lambda: check_face_lemma(d)),
        ("degeneracy-pushforward", lambda: check_degeneracy_lemma(d)),
    ]


# ----- triangulation ----------------------------------------------------------------


def check_triangulation(cset, max_dim: int) -> Verdict:
    """The triangulation chain map of a cubical set through max_dim is a
    chain map, a map of coalgebras and, below max_dim, a
    quasi-isomorphism; the first of the three to fail gives the witness."""
    _, _, _, tmap = triangulation_map(cset, max_dim)
    for check in (check_chain_map, check_coalgebra_map,
                  lambda f: check_quasi_iso(f, range(max_dim))):
        v = check(tmap)
        if not v.ok:
            return v
    return Verdict.passed()


def _double_interval():
    """The product of two intervals, its triangulation up to dimension 2 and
    the triangulations of its two factors."""
    left, right = StandardCube(1), StandardCube(1)
    prod = ProductCubicalSet(left, right)
    return (prod, TriangulatedCubicalSet(prod, 2),
            TriangulatedCubicalSet(left, 1), TriangulatedCubicalSet(right, 1))


def check_product_splitting() -> Verdict:
    """The product-splitting correspondence is a simplicial bijection on the
    double interval up to dimension 2, compatible with the diagonals."""
    prod, tri_prod, tri_left, tri_right = _double_interval()
    for m in range(3):
        for x in tri_prod.nondegenerate(m):
            a, b = product_split_backward(tri_left, tri_right, prod, x)
            back = product_split_forward(tri_prod, prod, a, b)
            if back != x:
                return Verdict.failed({"check": "roundtrip", "x": x})
    return Verdict.passed()


def check_product_splitting_dgc() -> Verdict:
    """The chain map induced by the product splitting commutes with the
    boundary and with the front/back diagonal (exact matrix identities)."""
    from .chains import ChainMap
    from .simplicial import ProductSimplicialSet

    prod, tri_prod, tri_left, tri_right = _double_interval()
    pairs = ProductSimplicialSet(tri_left, tri_right)
    src = simplicial_chains(tri_prod, 2)
    tgt = simplicial_chains(pairs, 2)
    present = {x for labels in tgt.basis.values() for x in labels}
    mapping = {}
    for m in range(3):
        for x in tri_prod.nondegenerate(m):
            pair = product_split_backward(tri_left, tri_right, prod, x)
            mapping[x] = {pair: 1} if pair in present else {}
    qmap = ChainMap(src, tgt, mapping)
    v = check_chain_map(qmap)
    return v if not v.ok else check_coalgebra_map(qmap)


def triangulation_checks(d):
    checks = [(f"cube-{n}",
               lambda n=n: check_triangulation(StandardCube(n), n + 1))
              for n in range(min(d, 4))]
    checks += [
        ("product-1x1", lambda: check_triangulation(
            ProductCubicalSet(StandardCube(1), StandardCube(1)), 3)),
        ("cobar-S2", lambda: check_triangulation(CobarSet(fixture("S2")), 3)),
        ("product-splitting", check_product_splitting),
        ("product-splitting-chains", check_product_splitting_dgc),
    ]
    return checks


# ----- cobar isomorphism ------------------------------------------------------------


def check_cobar_iso(name: str, max_deg: int = 3) -> Verdict:
    _, _, _, verdicts = compare_models(fixture(name), max_deg)
    for v in verdicts.values():
        if not v.ok:
            return v
    return Verdict.passed()


def cobar_iso_checks(d):
    return [(f"iso-{name}", lambda n=name: check_cobar_iso(n, d))
            for name in ("S2", "S3", "D4sk1")]


# ----- szczarba contract ------------------------------------------------------------


def szczarba_contract_checks(d):
    checks = []
    for name in ("S2", "S3", "D4sk1"):
        provider = szczarba.SzProvider(loopgroup.LoopGroup(fixture(name)))
        checks.append((f"contract-{name}",
                       lambda p=provider: szczarba.contract_check(p, d)))
        checks.append((f"twisting-{name}",
                       lambda g=provider.group:
                       loopgroup.check_twisting(g, d + 1)))
    def rival():
        diag = szczarba.rival_convention_diagnosis(fixture("TwoLoopsCell"))
        plain, swapped = diag["plain"], diag["swapped"]
        if plain.ok or plain.witness["identity"] != "d-i":
            return Verdict.failed({"check": "plain order", "verdict": plain})
        if swapped.ok or swapped.witness["identity"] != "d-iii":
            return Verdict.failed({"check": "swapped order", "verdict": swapped})
        return Verdict.passed()
    checks.append(("rival-convention-fails", rival))
    return checks


# ----- main theorem -----------------------------------------------------------------


def main_theorem_checks(d):
    checks = []
    for name in ("S2", "D4sk1"):
        # one provider, one glued map and one word map per fixture, shared
        # by every check
        provider = szczarba.SzProvider(loopgroup.LoopGroup(fixture(name)))
        f = szczarba.CobarToGroupMap(provider)
        fmap = szczarba.word_map(provider, d)
        checks += [
            (f"glue-{name}", lambda f=f: szczarba.build_f(f, d)),
            (f"simplicial-{name}",
             lambda f=f: szczarba.check_f_simplicial(f, d)),
            (f"multiplicative-{name}",
             # one degree below the suite's, and at least 1: it checks
             # every pair of cubes, so its cost grows as their count squared
             lambda f=f: szczarba.check_f_multiplicative(f, max(1, d - 1))),
            (f"comparison-{name}",
             lambda f=f, m=fmap: szczarba.main_theorem_check(f, m)),
            (f"cochain-map-{name}", lambda m=fmap: check_chain_map(m)),
            (f"comultiplicative-{name}",
             lambda m=fmap: check_coalgebra_map(m)),
        ]
    return checks


class Suite(Frozen):
    """A named batch of checks: ``checks(d)`` gives its (name, check) pairs
    at degree d, ``degree`` is the default d (None: the checks have fixed
    sizes), and a d below ``least`` is refused."""

    __slots__ = _fields = ("checks", "degree", "least")

    def __init__(self, checks: Callable[[int | None], list],
                 degree: int | None, least: int = 0):
        init = object.__setattr__
        init(self, "checks", checks)
        init(self, "degree", degree)
        init(self, "least", least)


SUITES = {
    "combinatorics": Suite(combinatorics_checks, None),
    "simplicial": Suite(simplicial_checks, 5),
    "cubical": Suite(cubical_checks, 4),
    "cube-lemmas": Suite(cube_lemmas_checks, 4, 1),
    "triangulation": Suite(triangulation_checks, 4),
    "cobar-iso": Suite(cobar_iso_checks, 3, 1),
    "szczarba-contract": Suite(szczarba_contract_checks, 2, 1),
    "main-theorem": Suite(main_theorem_checks, 2, 1),
}


def degree(what: str, max_dim, default, least: int = 0):
    """The degree ``what`` runs at: ``max_dim`` if given, else ``default``;
    None for checks of fixed sizes, whatever ``max_dim`` says.  A negative
    max_dim is refused, and so is one below ``least``, where the checks
    would enumerate nothing and pass vacuously."""
    if max_dim is None:
        return default
    if max_dim < 0:
        floor = f", and it checks nothing below degree {least}" if least else ""
        raise ValueError(f"{what}: dimensions must be >= 0{floor};"
                         f" got {max_dim}")
    if max_dim < least:
        raise ValueError(f"{what} checks nothing below degree {least};"
                         f" got {max_dim}")
    return None if default is None else max_dim


def check_request(name: str, max_dim=None):
    """The degree the named suite runs at; raises ValueError for an unknown
    suite and for a degree the suite refuses."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: "
                         + ", ".join(sorted(SUITES)))
    suite = SUITES[name]
    return degree(f"suite {name!r}", max_dim, suite.degree, suite.least)


def run_suite(name: str, max_dim=None) -> Report:
    d = check_request(name, max_dim)
    return run_checks(name, SUITES[name].checks, d)
