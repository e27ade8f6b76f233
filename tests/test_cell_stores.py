"""The per-complex cell stores of ``StandardCube`` and ``SimplicialCube``:
every structure map returns the cell the fresh formula gives, each
distinct cell is one object, the store holds exactly the cells that were
handed out, and it lives and dies with its complex.  The simplex store of
a presentation is counted here too: the layers above it never compare two
equal simplices field by field.  Every structure that stores what it
computes dies by reference counting, with no collector run."""

import weakref
from collections import Counter
from math import comb

import pytest

from cobarlab import cubes, verify
from cobarlab.cobar import CobarSet
from cobarlab.cubes import CubeMorphism, StandardCube
from cobarlab.loopgroup import LoopGroup, check_twisting
from cobarlab.simpcube import (PartitionSimplex, SimplicialCube,
                               partition_degeneracy, partition_face)
from cobarlab.simplicial import Simplex, fixture
from cobarlab.szczarba import (CobarToGroupMap, SzProvider, build_f,
                               contract_check, word_map)
from cobarlab.triangulate import TriangulatedCubicalSet


def one_object_per_value(results):
    """True when equal results are the same object."""
    seen = {}
    return all(seen.setdefault(r, r) is r for r in results)


def stored(cset):
    """The store's size in each dimension, lowest dimension first."""
    return [len(cset._cells[k]) for k in sorted(cset._cells)]


def counting(cset, names):
    """cset whose operators ``names``, and the operators its ``_bind`` hands
    the identity checker, count their calls and record their results;
    returns (cset, calls, results)."""
    calls = Counter()
    results = set()

    def wrap(name, op):
        def counted(x, *args):
            calls[name] += 1
            result = op(x, *args)
            results.add(result)
            return result
        return counted

    for name in names:
        setattr(cset, name, wrap(name, getattr(cset, name)))
    bind = cset._bind
    cset._bind = lambda n, op: wrap(op[0], bind(n, op))
    return cset, calls, results


@pytest.mark.parametrize("n", range(5))
def test_standard_cube_maps_equal_fresh_composites(n):
    # the maps read per-generator entry tables; each result must be the
    # composite with the generator, and the cell the store holds
    cube = StandardCube(n)
    results = []
    for k in range(n + 2):
        for y in cube.cubes(k):
            for i in range(1, k + 1):
                for eps in (0, 1):
                    face = cube.face(y, eps, i)
                    assert face == y.compose(CubeMorphism.delta(k, eps, i))
                    results.append(face)
                conn = cube.conn(y, i)
                assert conn == y.compose(CubeMorphism.gamma(k + 1, i))
                results.append(conn)
            for i in range(1, k + 2):
                degen = cube.degen(y, i)
                assert degen == y.compose(CubeMorphism.sigma(k + 1, i))
                results.append(degen)
            results.append(y)
    assert one_object_per_value(results)
    held = {id(y) for cells in cube._cells.values() for y in cells.values()}
    assert all(id(y) in held for y in results)


@pytest.mark.parametrize("n", range(4))
def test_simplicial_cube_maps_equal_fresh_brackets(n):
    cube = SimplicialCube(n)
    results = []
    for m in range(4):
        for u in cube.simplices(m):
            for i in range(m + 1):
                if m:
                    face = cube.face(u, i)
                    assert face == partition_face(u, i)
                    results.append(face)
                degeneracy = cube.degeneracy(u, i)
                assert degeneracy == partition_degeneracy(u, i)
                results.append(degeneracy)
            results.append(u)
    assert one_object_per_value(results)


def sample(cells):
    """Every cell of a small store, every k-th of a large one."""
    cells = list(cells)
    return cells[::len(cells) // 500 + 1]


def standard_operators(k):
    """Every generator on k-cubes: (operator, generator composed with)."""
    ops = [(("d", eps, i), CubeMorphism.delta(k, eps, i))
           for i in range(1, k + 1) for eps in (0, 1)]
    ops += [(("s", i), CubeMorphism.sigma(k + 1, i)) for i in range(1, k + 2)]
    ops += [(("g", i), CubeMorphism.gamma(k + 1, i)) for i in range(1, k + 1)]
    return ops


def check_standard_cube_maps(cube, cells):
    """Every bound and public map of the cube on every cell of ``cells``
    (dimension -> cells) is the cell composed with its generator, and the
    public map returns the cell the bound one does."""
    public = {"d": cube.face, "s": cube.degen, "g": cube.conn}
    for k, ys in cells.items():
        for op, gen in standard_operators(k):
            bound = cube._bind(k, op)
            for y in ys:
                got = bound(y)
                assert got == y.compose(gen)
                assert public[op[0]](y, *op[1:]) is got


@pytest.mark.parametrize("n", range(5))
def test_bound_standard_cube_maps_equal_composites(n):
    # the cells the cubical suite's check of the standard n-cube reaches,
    # in every dimension, at most about 500 of each
    cube = StandardCube(n)
    assert cube.validate(min(n + 1, 4)).ok
    check_standard_cube_maps(cube, {k: sample(cells.values())
                                    for k, cells in cube._cells.items()})


def test_every_symbol_of_every_entry_table_is_translated_right():
    # the k-cubes of the 1-cube are its 2^k + 1 entries, one per symbol
    cube = StandardCube(1)
    cells = {k: cube.cubes(k) for k in range(8)}
    assert [len(ys) for ys in cells.values()] == [2 ** k + 1 for k in range(8)]
    assert all(sorted(y.code for y in ys)
               == [bytes([s]) for s in range(len(ys))]
               for ys in cells.values())
    # the 7-cubes have faces only: their degeneracies are refused below
    check_standard_cube_maps(cube, {k: cells[k] for k in range(7)})
    for op, gen in standard_operators(7)[:14]:
        bound = cube._bind(7, op)
        assert all(bound(y) == y.compose(gen) for y in cells[7])


def bracket_rule(u, letter, j):
    """The bracket of d_j u or s_j u by the part-index rule, entry by entry."""
    shift = -1 if letter == "d" else 1
    return bytes(k if k <= j else k + shift for k in u.ks)


def check_simplicial_cube_maps(cube, cells):
    for m, us in cells.items():
        ops = [("s", j) for j in range(m + 1)]
        if m:
            ops += [("d", j) for j in range(m + 1)]
        for op in ops:
            bound = cube._bind(m, op)
            letter, j = op
            public, fresh = ((cube.face, partition_face) if letter == "d"
                             else (cube.degeneracy, partition_degeneracy))
            m2 = m - 1 if letter == "d" else m + 1
            for u in us:
                got = bound(u)
                assert got == fresh(u, j)
                assert (got.ks, got.dim) == (bracket_rule(u, letter, j), m2)
                assert public(u, j) is got


@pytest.mark.parametrize("n", range(5))
def test_bound_simplicial_cube_maps_equal_fresh_brackets(n):
    # the simplices the cube-lemmas suite's check of the n-cube reaches,
    # in every dimension, at most about 500 of each
    cube = SimplicialCube(n)
    assert cube.validate(n + 1).ok
    check_simplicial_cube_maps(cube, {m: sample(cells.values())
                                      for m, cells in cube._cells.items()
                                      if m >= 0})


def test_every_part_index_is_translated_right():
    # one coordinate in each part of a simplex of each dimension up to 4,
    # and in the parts around both ends and the middle of a 253-simplex,
    # the last whose degeneracies exist; then the faces of a 254-simplex
    cube = SimplicialCube(1)
    cells = {m: [cube._cells[m][bytes([k])] for k in range(m + 2)]
             for m in range(5)}
    cells[253] = [cube._cells[253][bytes([k])]
                  for k in (0, 1, 2, 126, 127, 128, 252, 253, 254)]
    check_simplicial_cube_maps(cube, cells)
    top = PartitionSimplex(1, (255,), 254)
    assert [cube.face(top, j).ks for j in (253, 254)] == [b"\xfe", b"\xfe"]
    assert cube._bind(254, ("d", 0))(top) == PartitionSimplex(1, (254,), 253)


def test_cells_past_the_byte_codes_are_refused():
    limit = "^a partition simplex has dimension at most 254"
    with pytest.raises(ValueError, match=limit):
        PartitionSimplex(1, (0,), 255)
    # an int is no bracket, though bytes(2) would read it as two zeros
    with pytest.raises(TypeError):
        PartitionSimplex(2, 2, 1)
    scube = SimplicialCube(1)
    top = PartitionSimplex(1, (255,), 254)
    for call in (lambda: scube.degeneracy(top, 0),
                 lambda: scube._bind(254, ("s", 254))(top),
                 lambda: partition_degeneracy(top, 3)):
        with pytest.raises(ValueError, match=limit):
            call()
    assert not scube._cells.get(255)
    limit = "^a cell of a standard cube has dimension at most 7"
    cube = StandardCube(1)
    seven = cube.cubes(7)[-1]
    eight = CubeMorphism(8, 1, ((1, 8),))
    assert seven.code == b"\x80" and eight.code is None
    for call in (lambda: cube.cubes(8),
                 lambda: cube.degen(seven, 1),
                 lambda: cube.conn(seven, 7),
                 lambda: cube.face(eight, 0, 8),
                 lambda: cube.degen(eight, 1),
                 lambda: cube._bind(7, ("s", 8)),
                 lambda: cube._bind(7, ("g", 1)),
                 lambda: cube._bind(8, ("d", 1, 1))):
        with pytest.raises(ValueError, match=limit):
            call()
    assert 8 not in cube._cells


def test_out_of_range_indices_raise_as_before():
    cube = StandardCube(2)
    y = CubeMorphism.identity(2)
    tables = (cubes._delta_entries, cubes._sigma_entries,
              cubes._gamma_entries)
    cached = [table.cache_info().currsize for table in tables]
    for call, message in [
            (lambda: cube.face(y, 0, 3), "face coordinate out of range"),
            (lambda: cube.face(y, 1, 0), "face coordinate out of range"),
            (lambda: cube.face(cube.cubes(0)[0], 1, 1),
             "face coordinate out of range"),
            (lambda: cube.degen(y, 4), "projection coordinate out of range"),
            (lambda: cube.degen(y, 0), "projection coordinate out of range"),
            (lambda: cube.conn(y, 3), "connection coordinate out of range"),
            (lambda: cube.conn(y, 0), "connection coordinate out of range")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    # no entry table is cached for an index out of range
    assert [table.cache_info().currsize for table in tables] == cached
    scube = SimplicialCube(2)
    vertex, edge = scube.nondegenerate(0)[0], scube.nondegenerate(1)[0]
    for call, message in [
            (lambda: scube.face(vertex, 0), "a vertex has no faces"),
            (lambda: scube.face(edge, 2), "face index out of range"),
            (lambda: scube.face(edge, -1), "face index out of range"),
            (lambda: scube.degeneracy(edge, 2),
             "degeneracy index out of range")]:
        with pytest.raises(ValueError, match=message):
            call()


def test_a_cell_of_a_cube_of_another_dimension_is_refused():
    # each cube builds its cells with its own n, so the constructor refuses
    # an output table or bracket of another length, and nothing is stored
    cube, other = StandardCube(2), StandardCube(3)
    y = other.cubes(2)[0]
    for call in (lambda: cube.face(y, 0, 1), lambda: cube.degen(y, 1),
                 lambda: cube.conn(y, 1)):
        with pytest.raises(ValueError,
                           match="^one output entry per target coordinate$"):
            call()
    scube, sother = SimplicialCube(2), SimplicialCube(3)
    u = sother.nondegenerate(1)[0]
    for call in (lambda: scube.face(u, 0), lambda: scube.degeneracy(u, 0)):
        with pytest.raises(ValueError, match="^bracket needs one part index"):
            call()
    assert sum(stored(cube)) == sum(stored(scube)) == 0


@pytest.mark.parametrize("make, cells", [
    (StandardCube,
     lambda c: c.cubes(1) + [c.face(y, 0, 1) for y in c.cubes(1)]),
    (SimplicialCube,
     lambda c: c.nondegenerate(1) + [c.face(u, 0) for u in c.nondegenerate(1)]),
])
def test_stores_belong_to_their_complex(make, cells, no_collector):
    first, second = make(2), make(2)
    a, b = cells(first), cells(second)
    assert a == b
    assert not {id(x) for x in a} & {id(x) for x in b}
    ref = weakref.ref(first)
    del first
    assert ref() is None


# (build, exercise): exercising fills every store the owner keeps
OWNERS = {
    "SimplicialPresentation": (lambda: fixture("D4sk1"),
                               lambda x: x.validate_presentation(3).ok),
    "StandardCube": (lambda: StandardCube(2), lambda x: x.validate(3).ok),
    "SimplicialCube": (lambda: SimplicialCube(2), lambda x: x.validate(3).ok),
    "CobarSet": (lambda: CobarSet(fixture("D4sk1")),
                 lambda x: x.validate(2).ok),
    "TriangulatedCubicalSet": (
        lambda: TriangulatedCubicalSet(CobarSet(fixture("D4sk1")), 2),
        lambda x: x.validate(2).ok),
    "LoopGroup": (lambda: LoopGroup(fixture("D4sk1")),
                  lambda x: check_twisting(x, 4).ok),
    "SzProvider": (lambda: SzProvider(LoopGroup(fixture("D4sk1"))),
                   lambda x: (contract_check(x, 2).ok
                              and bool(word_map(x, 2).mapping))),
    "CobarToGroupMap": (
        lambda: CobarToGroupMap(SzProvider(LoopGroup(fixture("D4sk1")))),
        lambda x: build_f(x, 2).ok),
}


# the owners whose exercise runs the identity checker on them
VALIDATED = ("SimplicialPresentation", "StandardCube", "SimplicialCube",
             "CobarSet", "TriangulatedCubicalSet")


@pytest.mark.parametrize("owner", OWNERS)
def test_stores_die_by_reference_counting(owner, no_collector, monkeypatch):
    # a store whose build refers to its owner would make a cycle, which
    # only the collector frees; so would a bound operator that the owner
    # kept, and the tables of each bound operator die when the checker
    # returns
    build, exercise = OWNERS[owner]
    x = build()
    bound = []
    bind = getattr(type(x), "_bind", None)

    def watched(self, n, op):
        operator = bind(self, n, op)
        bound.append(weakref.ref(operator))
        return operator

    if bind is not None:
        monkeypatch.setattr(type(x), "_bind", watched)
    assert exercise(x)
    assert bool(bound) == (owner in VALIDATED)
    assert all(ref() is None for ref in bound)
    ref = weakref.ref(x)
    del x
    assert ref() is None


def test_standard_cube_store_holds_what_the_checker_made():
    cube, calls, results = counting(StandardCube(4), ("face", "degen", "conn"))
    assert cube.validate(4).ok
    assert sum(calls.values()) == 123_254
    # the 5-dimensional lists of the top rows' degeneracies and connections
    # hold every first operator of dimension 5, so they also build
    # s_{m+1} g_m of the identity 4-cube (m = 1..4), which no row reads:
    # four 6-cells more than the 6,061 the rows reach
    assert stored(cube) == [16, 48, 136, 368, 961, 2441, 6065]
    # the elements come from the store, and enumerating them adds nothing
    elements = {y for k in range(5) for y in cube.cubes(k)}
    assert stored(cube) == [16, 48, 136, 368, 961, 2441, 6065]
    held = {y for cells in cube._cells.values() for y in cells.values()}
    assert held == elements | results


def test_simplicial_cube_store_holds_what_the_checker_made():
    cube, calls, results = counting(SimplicialCube(4), ("face", "degeneracy"))
    assert cube.validate(5).ok
    assert sum(calls.values()) == 145_542
    # every m-simplex, degenerate or not: (m + 2)^4 brackets
    assert stored(cube) == [16, 81, 256, 625, 1296, 2401, 4096, 6561]
    held = {u for cells in cube._cells.values() for u in cells.values()}
    assert held == results | {u for m in range(6) for u in cube.simplices(m)}


# ----- the simplex store of a presentation ---------------------------------------


def test_no_two_equal_simplices_are_compared_field_by_field(monkeypatch):
    # a stored simplex meets only itself when it is equal, and a dict hit
    # on the same object never calls __eq__
    equal_but_distinct = Counter()
    eq = Simplex.__eq__

    def counted(x, y):
        result = eq(x, y)
        if result is True and x is not y:
            equal_but_distinct[x] += 1
        return result

    monkeypatch.setattr(Simplex, "__eq__", counted)
    assert CobarSet(fixture("D4sk1")).validate(3).ok
    assert verify.run_suite("cobar-iso").ok
    assert sum(equal_but_distinct.values()) == 0


def test_presentation_builds_each_simplex_once(monkeypatch):
    sset = fixture("D4sk1")
    before = len(sset._store)
    calls = Counter()
    init = Simplex.__init__

    def counted(x, *args):
        calls["init"] += 1
        init(x, *args)

    monkeypatch.setattr(Simplex, "__init__", counted)
    assert sset.validate_presentation(5).ok
    # the ss rows degenerate 5-simplices twice, so the store holds every
    # simplex up to dimension 7; a generator of dimension d has C(n, d)
    # n-simplices over it
    assert len(sset._store) == sum(comb(n, d) for d in sset.gens.values()
                                   for n in range(d, 8)) == 974
    assert calls["init"] == len(sset._store) - before == 958
