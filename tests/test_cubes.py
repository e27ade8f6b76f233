import itertools
import pickle

import pytest

from cobarlab.cubes import (CubeMorphism, ProductCubicalSet, StandardCube,
                            _all_outputs, cubical_chains)


def vertices(n):
    return list(itertools.product((0, 1), repeat=n))


def all_cube_morphisms(source: int, target: int):
    """Every morphism from the source-cube to the target-cube, exactly once."""
    for outs in _all_outputs(source, target):
        yield CubeMorphism(source, target, outs)


def evaluate(lam: CubeMorphism, point: tuple) -> tuple:
    """Apply lam to a point of its source cube (works for 0/1 vertices and
    for exact Fractions alike, using min for blocks): the vertex-level
    reference for ``compose`` and ``lambda_star``."""
    if len(point) != lam.source:
        raise ValueError("point has wrong dimension")
    return tuple(
        out if out in (0, 1) else min(point[v - 1] for v in out)
        for out in lam.outputs
    )


def to_word(lam):
    """A generating word, outermost first, composing back to ``lam``.

    Entries are ('delta', eps, i), ('sigma', i), ('gamma', i).
    """
    word = []
    consts = [(j, out) for j, out in enumerate(lam.outputs, 1) if out in (0, 1)]
    for j, eps in sorted(consts, reverse=True):
        word.append(("delta", eps, j))
    used = sorted(v for out in lam.outputs if out not in (0, 1) for v in out)
    relabel = {v: t for t, v in enumerate(used, 1)}
    start = 1
    merges = []
    for out in lam.outputs:
        if out in (0, 1):
            continue
        merges.extend(("gamma", start) for _ in range(len(out) - 1))
        start += len(out)
    word.extend(merges)
    unused = [v for v in range(1, lam.source + 1) if v not in relabel]
    word.extend(("sigma", v) for v in unused)
    return word


def from_word(word, source: int) -> CubeMorphism:
    """Compose a generating word (outermost first) starting at ``source``."""
    morphism = CubeMorphism.identity(source)
    for kind, *args in reversed(word):
        n = morphism.target
        if kind == "delta":
            eps, i = args
            gen = CubeMorphism.delta(n + 1, eps, i)
        elif kind == "sigma":
            (i,) = args
            gen = CubeMorphism.sigma(n, i)
        elif kind == "gamma":
            (i,) = args
            gen = CubeMorphism.gamma(n, i)
        else:
            raise ValueError(f"unknown generator {kind!r}")
        morphism = gen.compose(morphism)
    return morphism


def test_generator_evaluation():
    d = CubeMorphism.delta(2, 1, 1)  # insert constant 1 as coordinate 1
    assert evaluate(d, (0,)) == (1, 0)
    s = CubeMorphism.sigma(2, 2)  # drop coordinate 2
    assert evaluate(s, (0, 1)) == (0,)
    g = CubeMorphism.gamma(2, 1)  # min of coordinates 1 and 2
    assert evaluate(g, (1, 0)) == (0,)
    assert evaluate(g, (1, 1)) == (1,)


def test_composition_matches_evaluation():
    for lam in all_cube_morphisms(1, 2):
        for mu in all_cube_morphisms(2, 2):
            comp = mu.compose(lam)
            for v in vertices(1):
                assert evaluate(comp, v) == evaluate(mu, evaluate(lam, v))


def test_word_roundtrip():
    for source in range(3):
        for target in range(3):
            for lam in all_cube_morphisms(source, target):
                assert from_word(to_word(lam), source) == lam


def test_morphism_counts():
    # endomorphisms of the 1-cube: identity, two constants, none else
    assert len(list(all_cube_morphisms(1, 1))) == 3
    assert len(list(all_cube_morphisms(0, 2))) == 4  # the four vertices


@pytest.mark.parametrize("n", range(4))
def test_standard_cube_identities(n):
    assert StandardCube(n).validate(n + 1).ok


@pytest.mark.parametrize("call", [
    lambda: StandardCube(-1), lambda: StandardCube(-1).validate(2),
    lambda: StandardCube(-1).cubes(1)])
def test_negative_standard_cube_is_refused(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call()


def test_product_identities():
    prod = ProductCubicalSet(StandardCube(1), StandardCube(1))
    assert prod.validate(3).ok
    assert ProductCubicalSet(StandardCube(2), StandardCube(1)).validate(3).ok


def test_degenerate_and_folded():
    cube = StandardCube(2)
    top = CubeMorphism.identity(2)
    assert not cube.is_degenerate(top)
    assert not cube.is_folded(top)
    assert cube.is_degenerate(cube.degen(top, 1))
    assert cube.is_folded(cube.conn(top, 1))


def test_normalized_counts():
    cube = StandardCube(2)
    assert len(cube.normalized(2)) == 1
    assert len(cube.normalized(1)) == 4  # the four edges
    assert len(cube.normalized(0)) == 4


def test_cubical_chains_square():
    cx = cubical_chains(StandardCube(2), 2)
    assert cx.check_d_squared().ok
    assert cx.check_coalgebra().ok
    assert cx.homology(0).betti == 1
    assert cx.homology(1).betti == 0
    assert cx.homology(2).betti == 0


def test_cubical_chains_product():
    prod = ProductCubicalSet(StandardCube(1), StandardCube(1))
    cx = cubical_chains(prod, 2)
    assert cx.check_d_squared().ok
    assert cx.check_coalgebra().ok
    assert cx.homology(0).betti == 1 and cx.homology(1).betti == 0


def test_repeated_block_coordinate_rejected():
    # blocks are strictly increasing: a block such as (1, 1) would give a
    # morphism whose generating word does not compose back to it
    with pytest.raises(ValueError):
        CubeMorphism(2, 1, ((1, 1),))
    with pytest.raises(ValueError):
        CubeMorphism(3, 2, ((1, 2, 2), 0))


def test_generators_are_cached():
    assert CubeMorphism.delta(3, 0, 2) is CubeMorphism.delta(3, 0, 2)
    assert CubeMorphism.identity(2) is CubeMorphism.identity(2)


def test_validate_catches_broken_connection():
    # the checker calls the operators that _bind hands out
    class BrokenCube(StandardCube):
        def _bind(self, n, op):
            if n == 2 and op == ("g", 2):
                op = ("s", 2)
            return super()._bind(n, op)

    verdict = BrokenCube(3).validate(3)
    assert not verdict.ok
    assert verdict.witness["identity"] == "gg"


def test_cube_morphism_value_semantics():
    lam = CubeMorphism(2, 3, ((1,), 0, (2,)))
    # the repr of the former dataclass, which witnesses print
    assert repr(lam) == \
        "CubeMorphism(source=2, target=3, outputs=((1,), 0, (2,)))"
    copy = pickle.loads(pickle.dumps(lam))
    assert copy == lam and hash(copy) == hash(lam) and copy is not lam
    assert lam != CubeMorphism(2, 3, ((1,), 1, (2,)))
    assert lam != (2, 3, ((1,), 0, (2,)))
    with pytest.raises(AttributeError):
        lam.source = 3
