"""Construction invariants of cube morphisms, partition simplices and
simplices: each malformed input is rejected, and the checks accept exactly
what a plain reference reading of each class's contract accepts."""

import itertools

import pytest

from cobarlab.cubes import CubeMorphism, StandardCube
from cobarlab.simpcube import from_parts, u_pi
from cobarlab.simplicial import Simplex


def fs(*parts):
    return tuple(frozenset(p) for p in parts)


MALFORMED = [
    ("cube: too few outputs", lambda: CubeMorphism(2, 2, ((1,),))),
    ("cube: too many outputs", lambda: CubeMorphism(1, 1, ((1,), 0))),
    ("cube: non-tuple entry", lambda: CubeMorphism(1, 1, ([1],))),
    ("cube: integer entry", lambda: CubeMorphism(1, 1, (2,))),
    ("cube: empty block", lambda: CubeMorphism(1, 1, ((),))),
    ("cube: coordinate 0", lambda: CubeMorphism(2, 1, ((0,),))),
    ("cube: coordinate above source", lambda: CubeMorphism(2, 1, ((3,),))),
    ("cube: decreasing block", lambda: CubeMorphism(2, 1, ((2, 1),))),
    ("cube: repeated coordinate", lambda: CubeMorphism(2, 1, ((1, 1),))),
    ("cube: overlapping blocks",
     lambda: CubeMorphism(3, 2, ((1, 2), (2, 3)))),
    ("cube: unordered blocks", lambda: CubeMorphism(2, 2, ((2,), (1,)))),
    ("cube: repeated single blocks", lambda: CubeMorphism(2, 2, ((1,), (1,)))),
    ("cube: negative source", lambda: CubeMorphism(-3, 1, (0,))),
    ("cube: negative dimension of a standard cube",
     lambda: StandardCube(2).cubes(-1)),
    ("partition: one part", lambda: from_parts(1, fs({1}))),
    ("partition: no parts", lambda: from_parts(0, ())),
    ("partition: missing coordinate",
     lambda: from_parts(3, fs({1}, {3}))),
    ("partition: extra coordinate",
     lambda: from_parts(2, fs({1, 2}, {3}))),
    ("partition: coordinate 0", lambda: from_parts(2, fs({0, 1}, {2}))),
    ("partition: duplicated coordinate",
     lambda: from_parts(2, fs({1, 2}, {2}))),
    ("partition: duplicate in place of a missing one",
     lambda: from_parts(3, [{1, 2}, {2}])),
    ("partition: top simplex of a non-permutation", lambda: u_pi((1, 1))),
    ("simplex: increasing degeneracies", lambda: Simplex((0, 1), "x", 2)),
    ("simplex: repeated degeneracy", lambda: Simplex((1, 1), "x", 2)),
    ("simplex: late increase", lambda: Simplex((3, 1, 2), "x", 2)),
]


@pytest.mark.parametrize("build", [b for _, b in MALFORMED],
                         ids=[name for name, _ in MALFORMED])
def test_malformed_input_raises(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("call", [
    lambda: CubeMorphism.identity(-1),
    lambda: CubeMorphism.delta(2, 0, 0),
    lambda: CubeMorphism.delta(2, 1, 3),
    lambda: CubeMorphism.delta(2, 5, 1),
    lambda: CubeMorphism.sigma(2, 0),
    lambda: CubeMorphism.sigma(2, 3),
    lambda: CubeMorphism.gamma(2, 2),
    lambda: CubeMorphism.gamma(1, 1),
], ids=["identity", "delta-low", "delta-high", "delta-eps", "sigma-low",
        "sigma-high", "gamma-high", "gamma-1cube"])
def test_cached_generators_raise_every_time(call):
    # a failed call caches nothing, so the second call raises too
    for _ in range(2):
        with pytest.raises(ValueError):
            call()


# ----- agreement with reference readings of the contracts -------------------------


def cube_contract(source, target, outputs):
    """One entry per target coordinate; each 0, 1 or a nonempty tuple of
    source coordinates; the tuples strictly increase, within and across
    blocks."""
    if len(outputs) != target:
        return False
    seen = []
    for out in outputs:
        if out in (0, 1):
            continue
        if not isinstance(out, tuple) or not out:
            return False
        if any(not 1 <= v <= source for v in out):
            return False
        seen.extend(out)
    return seen == sorted(set(seen))


def partition_contract(n, parts):
    """At least two parts, and the sorted coordinates are exactly 1..n."""
    return (len(parts) >= 2
            and sorted(e for p in parts for e in p) == list(range(1, n + 1)))


def accepts(build):
    try:
        build()
    except ValueError:
        return False
    return True


def test_cube_check_matches_contract():
    entries = [0, 1, ()] + [t for r in (1, 2, 3)
                            for t in itertools.product(range(5), repeat=r)]
    checked = 0
    for target in range(3):
        for outputs in itertools.product(entries, repeat=target):
            for source in range(4):
                assert accepts(lambda: CubeMorphism(source, target, outputs)) \
                    == cube_contract(source, target, outputs), (source, outputs)
                checked += 1
    assert checked == 4 * (1 + len(entries) + len(entries) ** 2)


def test_partition_check_matches_contract():
    subsets = [frozenset(c) for r in range(4)
               for c in itertools.combinations(range(4), r)]
    for count in range(4):
        for parts in itertools.product(subsets, repeat=count):
            for n in range(4):
                assert accepts(lambda: from_parts(n, parts)) \
                    == partition_contract(n, parts), (n, parts)


def test_simplex_check_matches_contract():
    for r in range(4):
        for degens in itertools.product(range(4), repeat=r):
            strict = all(a > b for a, b in zip(degens, degens[1:]))
            assert accepts(lambda: Simplex(degens, "x", 2)) == strict, degens
