"""Every identity family of the shared checker fires on a structure
corrupted for that family, so no family can drop out of a table unseen, and
the checker, which reads values from its tables, gives the same verdict as a
reference checker that calls every operator."""

import random
import re
from collections import Counter
from operator import attrgetter

import pytest

from cobarlab import cubes
from cobarlab.cobar import CobarSet
from cobarlab.cubes import (CubeMorphism, ProductCubicalSet, StandardCube,
                            cubical_identities)
from cobarlab.loopgroup import LoopGroup
from cobarlab.simpcube import PartitionSimplex, SimplicialCube
from cobarlab.simplicial import (Simplex, fixture, nondeg,
                                 simplicial_identities)
from cobarlab.szczarba import (CobarToGroupMap, SzProvider, build_f,
                               check_f_simplicial)
from cobarlab.verdict import Verdict, _plan, check_identities
from cobarlab.verify import SIMPLICIAL_FIXTURES, run_suite


LETTERS = {"face": "d", "degeneracy": "s", "degen": "s", "conn": "g"}

# the code of a cell, for the cubes whose identities are checked on codes
ENCODE = {StandardCube: attrgetter("code"), SimplicialCube: attrgetter("ks")}


def patched(obj, name, wrong):
    """obj whose operator ``name`` answers ``wrong(original, x, *args)``,
    as called, as its ``_bind`` hands it out and, on a cube checked on
    codes, as its ``_code_op`` hands it to the identity checker: on the
    cell a code decodes to, encoded again."""
    original = getattr(obj, name)
    setattr(obj, name, lambda x, *args: wrong(original, x, *args))
    bind, letter = obj._bind, LETTERS[name]
    obj._bind = lambda n, op: ((lambda x: wrong(original, x, *op[1:]))
                               if op[0] == letter else bind(n, op))
    if type(obj) in ENCODE:
        code_op, cells, encode = obj._code_op, obj._cells, ENCODE[type(obj)]
        obj._code_op = lambda n, op: (
            (lambda code: encode(wrong(original, cells[n][code], *op[1:])))
            if op[0] == letter else code_op(n, op))
    return obj


def bind_of(operators):
    """The ``bind`` of ``check_identities`` for an operator dict: the
    operator of each letter, called with the word's indices."""
    def bind(n, op):
        operator, args = operators[op[0]], op[1:]
        return lambda x: operator(x, *args)
    return bind


def counted_bind(structure, calls):
    """structure whose operators, as its ``_code_op`` (on a cube checked on
    codes) or else its ``_bind`` hands them to the identity checker, count
    their calls in ``calls``, by letter."""
    entry = "_code_op" if type(structure) in ENCODE else "_bind"
    bind = getattr(structure, entry)

    def counted(n, op):
        operator = bind(n, op)
        return lambda x: calls.update(op[:1]) or operator(x)
    setattr(structure, entry, counted)
    return structure


def bad_face_table():
    sset = fixture("Delta2")
    sset.faces[("0.1.2", 0)] = sset.faces[("0.1.2", 2)]
    return sset


S0_VERTEX = Simplex((0,), "0", 0)

SIMPLICIAL = {
    "dd": bad_face_table,
    "ss": lambda: patched(
        fixture("Delta2"), "degeneracy",
        lambda s, x, i: (Simplex((1, 0), "1", 0) if x == S0_VERTEX and i == 1
                         else s(x, i))),
    "ds": lambda: patched(
        fixture("Delta2"), "face",
        lambda d, x, i: nondeg("1", 0) if x == S0_VERTEX and i == 0 else d(x, i)),
}

CONST_0 = CubeMorphism(1, 1, (0,))  # the constant 1-cube at 0


def _folded(y):
    return any(out not in (0, 1) and len(out) > 1 for out in y.outputs)


CUBICAL = {
    "dd": lambda: patched(
        StandardCube(2), "face",
        lambda d, y, e, i: (d(y, 1, 1) if y == CubeMorphism.identity(2)
                            and (e, i) == (0, 1) else d(y, e, i))),
    "ss": lambda: patched(
        StandardCube(1), "degen",
        lambda s, y, i: s(y, 1) if y.source == 1 and i == 2 else s(y, i)),
    "ds": lambda: patched(
        StandardCube(1), "face",
        lambda d, y, e, i: (CubeMorphism(0, 1, (1,)) if y == CONST_0 and e == 1
                            else d(y, e, i))),
    "gg": lambda: patched(
        StandardCube(1), "conn",
        lambda g, y, i: (y.compose(CubeMorphism.sigma(3, 3))
                         if y.source == 2 and i == 2 else g(y, i))),
    "dg": lambda: patched(
        StandardCube(1), "face",
        lambda d, y, e, i: (d(y, 1 - e, i) if y.source == 2 and _folded(y)
                            else d(y, e, i))),
    "gs": lambda: patched(
        StandardCube(1), "conn",
        lambda g, y, i: (CubeMorphism(2, 1, (1,)) if y == CONST_0 and i == 1
                         else g(y, i))),
}


# a 2-cube of the 3-cube and a face of the identity 3-cube, so at dimension 3
# the checker reads the corrupted faces of this face from its table (the
# 2-cube's own rows break first, at dimension 2)
TWO_CUBE = CubeMorphism(2, 3, ((1,), 0, (2,)))
TABLE_CORRUPTIONS = {
    "2-cube face": lambda: patched(
        StandardCube(3), "face",
        lambda d, y, e, i: d(y, 1 - e, i) if y == TWO_CUBE and i == 2
        else d(y, e, i)),
}


def test_every_family_has_a_corruption():
    assert {row[0] for row in simplicial_identities(3)} == set(SIMPLICIAL)
    assert {row[0] for row in cubical_identities(3)} == set(CUBICAL)


@pytest.mark.parametrize("label", sorted(SIMPLICIAL))
def test_simplicial_family_fires(label):
    verdict = SIMPLICIAL[label]().validate(3)
    assert not verdict.ok
    assert verdict.witness["identity"] == label
    assert {"x", "i", "j", "lhs", "rhs"} <= set(verdict.witness)


@pytest.mark.parametrize("label", sorted(CUBICAL))
def test_cubical_family_fires(label):
    verdict = CUBICAL[label]().validate(2)
    assert not verdict.ok
    assert verdict.witness["identity"] == label
    assert {"y", "i", "j"} <= set(verdict.witness)
    assert "lhs" not in verdict.witness


def check_group_identities(group: LoopGroup, elements) -> Verdict:
    """Simplicial identities and multiplicativity of the structure maps on
    the given elements, grouped by dimension (and their pairwise products
    in equal dimensions)."""
    by_dim = {}
    for a in elements:
        by_dim.setdefault(a.n, []).append(a)
    verdict = check_identities(
        lambda n: by_dim.get(n, []),
        bind_of({"d": group.face, "s": group.degeneracy}),
        simplicial_identities, max(by_dim, default=0))
    if not verdict.ok:
        return verdict
    for n, items in by_dim.items():
        for a in items:
            for b in items:
                ab = group.mul(a, b)
                for i in range(n + 1):
                    if group.face(ab, i) != group.mul(group.face(a, i),
                                                      group.face(b, i)):
                        return Verdict.failed(
                            {"identity": "face multiplicative", "a": a, "b": b,
                             "i": i})
                for i in range(n + 1):
                    if group.degeneracy(ab, i) != group.mul(
                            group.degeneracy(a, i), group.degeneracy(b, i)):
                        return Verdict.failed(
                            {"identity": "degeneracy multiplicative", "a": a,
                             "b": b, "i": i})
    return Verdict.passed()


def _group_case(label):
    """A loop group with one corrupted operator, and the elements on which
    the corruption first breaks the family ``label``."""
    group = LoopGroup(fixture("D4sk1"))
    sset = group.sset
    if label == "dd":
        # only the 3-dimensional word is checked, so the wrong bottom face
        # in dimension 2 is first seen composed with another face
        patched(group, "face",
                lambda d, a, i: group.inv(d(a, i)) if a.n == 2 and i == 0
                else d(a, i))
        return group, [group.tau(x) for x in sset.nondegenerate(4)]
    if label == "ss":
        patched(group, "degeneracy",
                lambda s, a, i: s(a, 0) if a.n == 1 and i == 1 else s(a, i))
    else:
        patched(group, "face",
                lambda d, a, i: d(a, 1) if a.n == 2 and i == 2 else d(a, i))
    return group, [group.tau(x) for n in (2, 3, 4)
                   for x in sset.nondegenerate(n)]


@pytest.mark.parametrize("label", ["dd", "ss", "ds"])
def test_loop_group_family_fires(label):
    group, elements = _group_case(label)
    verdict = check_group_identities(group, elements)
    assert not verdict.ok
    assert verdict.witness["identity"] == label


# ----- the reference checker -----------------------------------------------------------


def reference_check(cells, operators, table, top, key="x", values=True):
    """``check_identities`` as a plain loop nest: every operator of both
    sides of every row is called on every cell, and no value is read from
    a table."""
    for n in range(top + 1):
        for x in cells(n):
            for label, fields, lhs, rhs in table(n):
                sides = []
                for word in (lhs, rhs):
                    value = x
                    for letter, *args in word:
                        value = operators[letter](value, *args)
                    sides.append(value)
                if sides[0] != sides[1]:
                    witness = {"identity": label, key: x, **fields}
                    if values:
                        witness["lhs"], witness["rhs"] = sides
                    return Verdict.failed(witness)
    return Verdict.passed()


def reference_simplicial(sset, max_dim):
    return reference_check(sset.simplices,
                           {"d": sset.face, "s": sset.degeneracy},
                           simplicial_identities, max_dim)


def cube_operators(cset):
    return {"d": cset.face, "s": cset.degen, "g": cset.conn}


def reference_cubical(cset, max_dim):
    return reference_check(cset.cubes, cube_operators(cset),
                           cubical_identities, max_dim, key="y",
                           values=False)


@pytest.mark.parametrize("max_dim", [3, 4])
@pytest.mark.parametrize("label", sorted(SIMPLICIAL))
def test_simplicial_witness_matches_reference(label, max_dim):
    fast = SIMPLICIAL[label]().validate(max_dim)
    assert not fast.ok
    assert repr(fast) == repr(reference_simplicial(SIMPLICIAL[label](),
                                                   max_dim))


@pytest.mark.parametrize("max_dim", [2, 3])
@pytest.mark.parametrize("label", sorted(CUBICAL) + sorted(TABLE_CORRUPTIONS))
def test_cubical_witness_matches_reference(label, max_dim):
    build = {**CUBICAL, **TABLE_CORRUPTIONS}[label]
    fast = build().validate(max_dim)
    assert not fast.ok
    assert repr(fast) == repr(reference_cubical(build(), max_dim))


# the 2-simplex <|1|2|> of the square, whose face d_1 answers d_0
BRACKET = PartitionSimplex(2, (1, 2), 2)


def corrupted_simplicial_cube():
    return patched(SimplicialCube(2), "face",
                   lambda d, u, j: d(u, 0) if u == BRACKET and j == 1
                   else d(u, j))


@pytest.mark.parametrize("max_dim", [2, 3])
def test_simplicial_cube_witness_matches_reference(max_dim):
    # the identities are checked on brackets, and the failing simplex and
    # both sides are decoded as simplices of their own dimensions
    fast = corrupted_simplicial_cube().validate(max_dim)
    assert not fast.ok
    witness = fast.witness
    assert witness["x"].__class__ is PartitionSimplex
    assert [witness[side].__class__ for side in ("lhs", "rhs")] == [
        PartitionSimplex, PartitionSimplex]
    assert witness["lhs"] != witness["rhs"]
    assert repr(fast) == repr(reference_simplicial(corrupted_simplicial_cube(),
                                                   max_dim))


def test_connection_tables_read_as_degeneracies_fail_the_standard_cubes(
        monkeypatch):
    # the mutant whose connection tables are those of the degeneracies
    # reaches the code operators of the standard cubes' checks and the
    # public maps the products read; the 0-cube has constant cells only,
    # on which the two tables agree
    monkeypatch.setattr(cubes, "_gamma_entries", cubes._sigma_entries)
    report = run_suite("cubical")
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    assert set(failed) == {*(f"standard-cube-{n}" for n in range(1, 5)),
                           "product-1x1", "product-2x1"}
    assert {witness["identity"] for witness in failed.values()} == {"dg"}


@pytest.mark.parametrize("label", ["dd", "ss", "ds"])
def test_loop_group_witness_matches_reference(label):
    group, elements = _group_case(label)
    fast = check_group_identities(group, elements)
    group, elements = _group_case(label)
    top = max(a.n for a in elements)
    slow = reference_check(
        lambda n: [a for a in elements if a.n == n],
        {"d": group.face, "s": group.degeneracy}, simplicial_identities, top)
    assert not fast.ok
    assert repr(fast) == repr(slow)


def test_loop_group_checks_elements_in_any_order():
    # the elements are grouped by dimension, each group in the given order
    group = LoopGroup(fixture("D4sk1"))
    words = [group.tau(x) for n in (2, 3, 4)
             for x in group.sset.nondegenerate(n)]
    for elements in (words, words[::-1], words[1::2] + words[::2]):
        assert check_group_identities(group, elements).ok


def test_standard_cube_operator_call_count():
    # the second operators of faces are read from the previous dimension's
    # lists, those of degeneracies and connections from the next one's
    calls = Counter()
    assert counted_bind(StandardCube(3), calls).validate(4).ok
    assert sum(calls.values()) == 36_270


def test_cobar_set_operator_call_count():
    # the checker calls the bound operators, which skip the public range
    # check
    calls = Counter()
    assert counted_bind(CobarSet(fixture("D4sk1")), calls).validate(3).ok
    assert sum(calls.values()) == 199_172


# ----- the read paths of degeneracy and connection words -----------------------------


def watched(cube, name, cell, args):
    """The checker's cells for ``cube.validate``, the list of the cells it
    has begun to check, and a list that records the cell being checked
    whenever ``cube``'s operator ``name`` is called on ``cell`` with
    ``args``."""
    checking = []
    calls = []
    patched(cube, name, lambda op, y, *a: (
        calls.append(checking[-1]) if y == cell and a == args else None)
        or op(y, *a))

    def cells(n):
        for y in cube.cubes(n):
            checking.append(y)
            yield y
    return cells, checking, calls


def rising_corruption(n):
    """The n-cube with a wrong connection g_2 on s_1 of the 1-cube along
    the last coordinate (other coordinates 0): it answers g_1."""
    degenerate = CubeMorphism(2, n, (0,) * (n - 1) + ((2,),))
    return patched(StandardCube(n), "conn",
                   lambda g, y, i: g(y, 1) if y == degenerate and i == 2
                   else g(y, i)), degenerate


def window_corruption(n):
    """The n-cube with a wrong degeneracy s_3 on the 3-cube that is both
    g_2 and s_1 of a 2-cube: it answers s_1."""
    folded = CubeMorphism(3, n, (0,) * (n - 1) + ((2, 3),))
    return patched(StandardCube(n), "degen",
                   lambda s, y, i: s(y, 1) if y == folded and i == 3
                   else s(y, i)), folded


@pytest.mark.parametrize("top", [2, 3])
def test_read_from_next_dimension_below_top_matches_reference(top):
    # the conn-degen row g_2 s_1 = s_1 g_1 on the identity 1-cube reads
    # g_2 of s_1 id from that 2-cube's list, made while the 1-cube is
    # checked, before the 2-cube's own rows run
    cube, degenerate = rising_corruption(1)
    cells, checking, calls = watched(cube, "conn", degenerate, (2,))
    fast = check_identities(cells, bind_of(cube_operators(cube)),
                            cubical_identities, top, key="y", values=False)
    identity = CubeMorphism.identity(1)
    assert fast == Verdict.failed({"identity": "gs", "y": identity,
                                   "i": 2, "j": 1})
    assert calls == [identity] and degenerate not in checking
    assert repr(fast) == repr(reference_cubical(rising_corruption(1)[0], top))


def test_read_through_top_window_matches_reference():
    # no row of g_2 x reads s_3 g_2 x (it is no side of an identity), but
    # that element's window list holds it; the next element y, with
    # s_1 y = g_2 x, reads it from there in the row s_1 s_2 = s_3 s_1
    cube, folded = window_corruption(1)
    cells, checking, calls = watched(cube, "degen", folded, (3,))
    fast = check_identities(cells, bind_of(cube_operators(cube)),
                            cubical_identities, 2, key="y", values=False)
    assert not fast.ok and fast.witness["identity"] == "ss"
    y = fast.witness["y"]
    assert y.source == 2 and cube.degen(y, 1) == folded
    assert calls == [checking[checking.index(y) - 1]]
    assert repr(fast) == repr(reference_cubical(window_corruption(1)[0], 2))


SQUARE_CORRUPTIONS = {
    "dd": CUBICAL["dd"],
    "rising": lambda: rising_corruption(2)[0],
    "window": lambda: window_corruption(2)[0],
}


def square_cells(cube, order):
    """The cells of the square through dimension 3, shuffled within each
    dimension by the seed ``order``, or, for ``"gap"``, in order with none
    of dimension 2."""
    cells = [list(cube.cubes(n)) for n in range(4)]
    if order == "gap":
        cells[2] = []
    else:
        shuffle = random.Random(order).shuffle
        for items in cells:
            shuffle(items)
    return cells.__getitem__


@pytest.mark.parametrize("order", [0, 1, 2, "gap"])
@pytest.mark.parametrize("label", sorted(SQUARE_CORRUPTIONS))
def test_unordered_elements_match_reference(label, order):
    # the stores hold whatever cells of a dimension come first, and an
    # empty dimension still hands its lists on to the next
    cube = SQUARE_CORRUPTIONS[label]()
    fast = check_identities(square_cells(cube, order),
                            bind_of(cube_operators(cube)), cubical_identities,
                            3, key="y", values=False)
    cube = SQUARE_CORRUPTIONS[label]()
    slow = reference_check(square_cells(cube, order),
                           cube_operators(cube), cubical_identities, 3,
                           key="y", values=False)
    assert not fast.ok
    assert repr(fast) == repr(slow)


PASSING = {
    **{f"standard-cube-{n}": (lambda n=n: StandardCube(n), min(n + 1, 3))
       for n in range(4)},
    **{f"simplicial-cube-{n}": (lambda n=n: SimplicialCube(n), n + 1)
       for n in range(4)},
    **{name: (lambda name=name: fixture(name), 4)
       for name in SIMPLICIAL_FIXTURES},
    "cobar-S2": (lambda: CobarSet(fixture("S2")), 3),
    # the reference calls the public operators, which refuse an index out
    # of range, so the bound operators are asked for none
    "cobar-D4sk1": (lambda: CobarSet(fixture("D4sk1")), 2),
    "product-1x1": (
        lambda: ProductCubicalSet(StandardCube(1), StandardCube(1)), 3),
    "product-2x1": (
        lambda: ProductCubicalSet(StandardCube(2), StandardCube(1)), 3),
}


@pytest.mark.parametrize("name", sorted(PASSING))
def test_passing_structure_matches_reference(name):
    build, max_dim = PASSING[name]
    structure = build()
    reference = (reference_simplicial if hasattr(structure, "simplices")
                 else reference_cubical)
    fast = structure.validate(max_dim)
    assert fast.ok
    assert fast == reference(build(), max_dim)


# ----- the checker's precondition ----------------------------------------------------


def dims_follow_letters(dim, operators, table, elements):
    """True when, on every word of every row of each element's table, ``d``
    lowers the dimension by one and every other letter raises it by one."""
    for n, x in elements:
        for _, _, lhs, rhs in table(n):
            for word in (lhs, rhs):
                value, expected = x, n
                for letter, *args in word:
                    value = operators[letter](value, *args)
                    expected += -1 if letter == "d" else 1
                    if dim(value) != expected:
                        return False
    return True


def _group_words():
    group = LoopGroup(fixture("D4sk1"))
    words = [group.tau(x) for n in (2, 3) for x in group.sset.nondegenerate(n)]
    return group, [(a.n, a) for a in words + [group.mul(a, a) for a in words]]


@pytest.mark.parametrize("name, build", [
    ("standard-cube", lambda: StandardCube(2)),
    ("product", lambda: ProductCubicalSet(StandardCube(1), StandardCube(1))),
    ("cobar-S2", lambda: CobarSet(fixture("S2"))),
    ("simplicial-cube", lambda: SimplicialCube(2)),
    ("presentation", lambda: fixture("D4sk1")),
])
def test_operators_move_dimension_by_letter(name, build):
    structure = build()
    if hasattr(structure, "simplices"):
        operators = {"d": structure.face, "s": structure.degeneracy}
        table = simplicial_identities
        elements = [(n, x) for n in range(3) for x in structure.simplices(n)]
    else:
        operators = cube_operators(structure)
        table = cubical_identities
        elements = [(n, y) for n in range(3) for y in structure.cubes(n)]
    assert elements
    assert dims_follow_letters(structure.dim, operators, table, elements)


def test_loop_group_operators_move_dimension_by_letter():
    group, elements = _group_words()
    assert dims_follow_letters(group.dim, {"d": group.face,
                                           "s": group.degeneracy},
                               simplicial_identities, elements)


def test_a_second_operator_outside_the_next_table_is_refused():
    # s_5 is no first operator of dimension 1, whose table is empty, so
    # the word's value could only come from calling it
    word = (("s", 0), ("s", 5))

    def table(n):
        return [("ss", {}, word, (("s", 0),))] if n == 0 else []

    def degeneracy(x, i):
        raise AssertionError("no operator is called on a refused table")

    with pytest.raises(ValueError, match=re.escape(repr(word))):
        _plan({}, table, bind_of({"s": degeneracy}), 0)
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        check_identities(lambda n: [S0_VERTEX], bind_of({"s": degeneracy}),
                         table, 0)


@pytest.mark.parametrize("table, letters", [
    (simplicial_identities, "ds"), (cubical_identities, "dsg")])
def test_shipped_tables_read_every_second_operator_from_a_list(table,
                                                               letters):
    bind = bind_of(dict.fromkeys(letters))
    firsts = {}
    for n in range(9):
        rows = _plan(firsts, table, bind, n)[3]
        assert len(rows) == len(table(n))


# ----- the operators that structures bind for the checker -----------------------------


def first_operators(table, n):
    """The distinct first operators of the words of ``table(n)``."""
    return list(dict.fromkeys(word[0] for row in table(n) for word in row[2:]
                              if word))


# (build, top dimension of the cells): the cubes, whose code operators (and
# the standard cube's _bind) resolve their own tables, cobar sets, whose
# _bind does, and products, which bind their public operators
BOUND = {
    **{f"standard-cube-{n}": (lambda n=n: StandardCube(n), 5)
       for n in range(5)},
    **{f"simplicial-cube-{n}": (lambda n=n: SimplicialCube(n), n + 2)
       for n in range(5)},
    "cobar-S2": (lambda: CobarSet(fixture("S2")), 4),
    "cobar-D4sk1": (lambda: CobarSet(fixture("D4sk1")), 4),
    **{f"product-{a}x{b}": (lambda a=a, b=b: ProductCubicalSet(
        StandardCube(a), StandardCube(b)), 3) for a, b in ((1, 1), (2, 1))},
}


@pytest.mark.parametrize("name", sorted(BOUND))
def test_bound_operators_equal_the_public_ones(name):
    # every first operator of the shipped tables, on every cell of every
    # dimension through the top; the store-backed cubes hand out the very
    # cell their public operators return, and their code operators map its
    # code to that cell's
    build, top = BOUND[name]
    structure = build()
    if hasattr(structure, "simplices"):
        table = simplicial_identities
        cells = lambda n: list(structure.simplices(n))  # noqa: E731
        public = {"d": structure.face, "s": structure.degeneracy}
    else:
        table, cells, public = (cubical_identities, structure.cubes,
                                cube_operators(structure))
    encode = ENCODE.get(type(structure))
    checked = 0
    for n in range(top + 1):
        xs = cells(n)
        for op in first_operators(table, n):
            bound, operator, args = structure._bind(n, op), public[op[0]], op[1:]
            code_op = encode and structure._code_op(n, op)
            for x in xs:
                value, expected = bound(x), operator(x, *args)
                assert value is expected if encode else value == expected
                if encode:
                    assert code_op(encode(x)) == encode(expected)
                checked += 1
    assert checked


def test_in_range_callers_read_the_cobar_set_through_bind(monkeypatch):
    # the glued map's checks and the triangulation they build read every
    # face, degeneracy and connection of the cobar set through _bind
    f = CobarToGroupMap(SzProvider(LoopGroup(fixture("S2"))))
    cset, calls = f.cset, Counter()
    for name in ("face", "degen", "conn", "_bind"):
        operator = getattr(cset, name)
        monkeypatch.setattr(cset, name, lambda *args, name=name, op=operator:
                            calls.update([name]) or op(*args))
    assert build_f(f, 2).ok and check_f_simplicial(f, 2).ok
    assert calls["_bind"] > 0
    assert calls["face"] == calls["degen"] == calls["conn"] == 0


def test_checker_binds_each_first_operator_once_per_dimension():
    cube = StandardCube(2)
    binds = Counter()
    bind = cube._code_op
    cube._code_op = lambda n, op: binds.update([(n, op)]) or bind(n, op)
    assert cube.validate(3).ok
    assert set(binds.values()) == {1}
    assert set(binds) == {(n, op) for n in range(5)
                          for op in first_operators(cubical_identities, n)}
