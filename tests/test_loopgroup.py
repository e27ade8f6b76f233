import functools
import itertools
import pickle
from collections import Counter

import pytest

from cobarlab.chains import check_chain_map, check_coalgebra_map
from cobarlab.loopgroup import GroupWord, LoopGroup, check_twisting
from cobarlab.simplicial import (SimplicialSet, fixture, nondeg, sphere,
                                 standard_simplex)
from test_identities import check_group_identities


def generator_elements(group, max_dim):
    out = []
    for n in range(1, max_dim + 2):
        for x in group.sset.simplices(n):
            w = group.tau(x)
            if w.letters:
                out.append(w)
                out.append(group.inv(w))
    return out


def test_requires_reduced():
    with pytest.raises(ValueError):
        LoopGroup(standard_simplex(2))


def test_group_laws():
    g = LoopGroup(fixture("TwoLoopsCell"))
    a = g.tau(nondeg("a", 1))
    b = g.tau(nondeg("b", 1))
    assert g.mul(a, g.one(0)) == a
    assert g.mul(a, g.inv(a)) == g.one(0)
    assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))
    assert g.mul(a, b) != g.mul(b, a)  # free, noncommutative


def test_erasure_of_bottom_degenerate_letters():
    g = LoopGroup(sphere(2))
    s2 = g.sset
    x = s2.degeneracy(nondeg("sigma", 2), 0)
    assert g.tau(x) == g.one(2)


@pytest.mark.parametrize("build,max_dim", [
    (sphere(2), 3), (sphere(3), 3), (fixture("D4sk1"), 3),
    (fixture("TwoLoopsCell"), 3),
])
def test_simplicial_group_identities(build, max_dim):
    g = LoopGroup(build)
    assert check_group_identities(g, generator_elements(g, max_dim)).ok


@pytest.mark.parametrize("build", [
    sphere(2), sphere(3), fixture("D4sk1"), fixture("TwoLoopsCell")])
def test_universal_twisting(build):
    assert check_twisting(LoopGroup(build), 3).ok


def test_twisted_bottom_face():
    g = LoopGroup(fixture("TwoLoopsCell"))
    t = g.tau(nondeg("T", 2))
    a = g.tau(nondeg("a", 1))
    b = g.tau(nondeg("b", 1))
    # faces of the 2-cell: bottom a, then b, b
    assert g.face(t, 0) == g.mul(b, g.inv(a))
    assert g.face(t, 1) == b


def test_rival_convention_reverses_the_pair():
    g = LoopGroup(fixture("TwoLoopsCell"), twist="rival")
    t = g.tau(nondeg("T", 2))
    a = g.tau(nondeg("a", 1))
    b = g.tau(nondeg("b", 1))
    assert g.face(t, 0) == g.mul(g.inv(a), b)


def test_front_back_faces():
    g = LoopGroup(fixture("D4sk1"))
    w = g.tau(nondeg("0123", 3))
    assert g.front_face(w, 0).n == 0
    assert g.back_face(w, 2).n == 0
    assert g.front_face(w, 2) == w


def degeneracy_test_words(g):
    """Generator elements through dimension 3, their pairwise products in
    equal dimensions, their degeneracies and the units."""
    gens = generator_elements(g, 3)
    words = list(gens)
    for a, b in itertools.product(gens, repeat=2):
        if a.n == b.n:
            words.append(g.mul(a, b))
    words += [g.degeneracy(a, i) for a in gens for i in range(a.n + 1)]
    words += [g.one(n) for n in range(4)]
    return words


def assert_degeneracy_tests_agree(g, words):
    """The letter-reading test equals the generic simplicial one on every
    word, and both outcomes occur."""
    degenerate = 0
    for a in words:
        assert g.is_degenerate(a) == SimplicialSet.is_degenerate(g, a), a
        degenerate += g.is_degenerate(a)
    assert 0 < degenerate < len(words)


@pytest.mark.parametrize("twist", ["standard", "rival"])
@pytest.mark.parametrize("build", [
    sphere(2), sphere(3), fixture("D4sk1"), fixture("TwoLoopsCell")])
def test_degeneracy_test_reads_the_letters(build, twist):
    g = LoopGroup(build, twist=twist)
    assert_degeneracy_tests_agree(g, degeneracy_test_words(g))


def test_degeneracy_test_on_the_main_theorem_values(monkeypatch):
    from cobarlab import szczarba

    # every word built while the six degree-2 main-theorem checks run on
    # D4sk1, as verify.main_theorem_suite runs them
    words = set()
    real_init = GroupWord.__init__

    def recording_init(self, *args):
        real_init(self, *args)
        words.add(self)

    monkeypatch.setattr(GroupWord, "__init__", recording_init)
    provider = szczarba.SzProvider(LoopGroup(fixture("D4sk1")))
    f = szczarba.CobarToGroupMap(provider)
    assert szczarba.build_f(f, 2).ok
    assert szczarba.check_f_simplicial(f, 2).ok
    assert szczarba.check_f_multiplicative(f, 1).ok
    fmap = szczarba.word_map(provider, 2)
    assert szczarba.main_theorem_check(f, fmap).ok
    assert check_chain_map(fmap).ok
    assert check_coalgebra_map(fmap).ok
    monkeypatch.undo()
    assert_degeneracy_tests_agree(provider.group, words)


def test_product_reduces_once():
    g = LoopGroup(fixture("TwoLoopsCell"))  # words in dimensions 0, 1 and 2
    gens = generator_elements(g, 2)
    for k in (2, 3):
        for words in itertools.product(gens, repeat=k):
            n = words[0].n
            if any(a.n != n for a in words):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    g.product(n, words)
                continue
            assert g.product(n, words) == functools.reduce(g.mul, words)
    assert [g.product(n, []) for n in range(3)] == [g.one(n) for n in range(3)]


def test_reduced_words_share_their_letters():
    # a product keeps the factors' letter pairs, not copies of them, so
    # the words a check stores share their letters
    g = LoopGroup(fixture("D4sk1"))
    a, b = g.tau(nondeg("0123", 3)), g.inv(g.tau(nondeg("0124", 3)))
    ab = g.mul(a, b)
    assert ab.letters[0] is a.letters[0] and ab.letters[1] is b.letters[0]


def test_group_word_value_semantics():
    g = LoopGroup(fixture("D4sk1"))
    a = g.mul(g.tau(nondeg("0123", 3)), g.inv(g.tau(nondeg("0124", 3))))
    # the repr of the former dataclass, which witnesses print
    assert repr(a) == "<0123 0124'>" and repr(g.one(2)) == "<1>_2"
    same = GroupWord(2, a.letters)
    assert same == a and hash(same) == hash(a) and same is not a
    assert hash(a) == hash((2, a.letters))
    assert a != GroupWord(3, a.letters) and a != g.inv(a)
    assert a != (2, a.letters)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a) and copy is not a
    assert {a: 1}[copy] == 1
    with pytest.raises(AttributeError):
        a.n = 3
    with pytest.raises(AttributeError):
        a.letters = ()
    with pytest.raises(AttributeError):
        del a.n
    assert not hasattr(a, "__dict__")


# ----- the group's store of letter faces and degeneracies --------------------


def reference_face(group, a, i):
    """``LoopGroup.face`` without the group's store: every letter's faces
    read from the presentation on every call."""
    if not 0 <= i <= a.n:
        raise ValueError("face index out of range")
    sset = group.sset
    out = []
    for x, e in a.letters:
        if i > 0:
            out.append((sset.face(x, i + 1), e))
            continue
        pair = [(sset.face(x, 1), 1), (sset.face(x, 0), -1)]
        if group.twist == "rival":
            pair = [(sset.face(x, 0), -1), (sset.face(x, 1), 1)]
        if e < 0:
            pair = [(y, -f) for y, f in reversed(pair)]
        out.extend(pair)
    return group.word(a.n - 1, out)


def reference_degeneracy(group, a, i):
    """``LoopGroup.degeneracy`` without the group's store."""
    if not 0 <= i <= a.n:
        raise ValueError("degeneracy index out of range")
    return group.word(a.n + 1, [(group.sset.degeneracy(x, i + 1), e)
                                for x, e in a.letters])


class CountingPresentation:
    """A presentation that counts the faces and degeneracies asked of it."""

    def __init__(self, sset):
        self.sset = sset
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.sset, name)

    def face(self, x, i):
        self.calls["face"] += 1
        return self.sset.face(x, i)

    def degeneracy(self, x, i):
        self.calls["degeneracy"] += 1
        return self.sset.degeneracy(x, i)


def store_test_words(g):
    """Generator elements through dimension 3, and the pairwise products in
    equal dimensions of those through dimension 2."""
    small = generator_elements(g, 2)
    return generator_elements(g, 3) + [
        g.mul(a, b) for a, b in itertools.product(small, repeat=2)
        if a.n == b.n]


@pytest.mark.parametrize("twist", ["standard", "rival"])
def test_group_reads_each_letter_operator_once(twist):
    presentation = CountingPresentation(fixture("D4sk1"))
    g = LoopGroup(presentation, twist=twist)
    gens = generator_elements(g, 3)
    words = store_test_words(g)
    ops = [(op, a, i) for a in words for i in range(a.n + 1)
           for op in (g.face, g.degeneracy)]
    first = [op(a, i) for op, a, i in ops]
    seen = dict(presentation.calls)
    assert seen["face"] and seen["degeneracy"]
    # each letter of a product already met its faces and degeneracies on a
    # generator, so asking again reads only the store
    assert [op(a, i) for op, a, i in ops] == first
    assert dict(presentation.calls) == seen
    products = [a for a in words if a not in gens]
    assert products
    fresh = LoopGroup(presentation, twist=twist)
    for a in gens:
        for i in range(a.n + 1):
            fresh.face(a, i), fresh.degeneracy(a, i)
    before = dict(presentation.calls)
    for a in products:
        for i in range(a.n + 1):
            fresh.face(a, i), fresh.degeneracy(a, i)
    assert dict(presentation.calls) == before


@pytest.mark.parametrize("twist", ["standard", "rival"])
@pytest.mark.parametrize("build", [
    sphere(2), sphere(3), fixture("D4sk1"), fixture("TwoLoopsCell")])
def test_stored_group_operators_match_the_presentation(build, twist):
    g = LoopGroup(build, twist=twist)
    words = store_test_words(g)
    for a in words:
        for i in range(a.n + 1):
            assert g.face(a, i) == reference_face(g, a, i), (a, i)
            assert g.degeneracy(a, i) == reference_degeneracy(g, a, i), (a, i)
    assert g._faces and g._degeneracies
    for (x, j), y in g._faces.items():
        assert y == build.face(x, j)
    for (x, j), y in g._degeneracies.items():
        assert y == build.degeneracy(x, j)
    a = words[0]
    for op in (g.face, g.degeneracy):
        with pytest.raises(ValueError, match="index out of range"):
            op(a, a.n + 1)
        with pytest.raises(ValueError, match="index out of range"):
            op(a, -1)


def test_standard_and_rival_groups_keep_separate_stores():
    sset = fixture("TwoLoopsCell")
    standard, rival = LoopGroup(sset), LoopGroup(sset, twist="rival")
    t = nondeg("T", 2)
    a, b = standard.tau(nondeg("a", 1)), standard.tau(nondeg("b", 1))
    for _ in range(2):  # the second round reads the stores
        assert standard.face(standard.tau(t), 0) == standard.mul(
            b, standard.inv(a))
        assert rival.face(rival.tau(t), 0) == rival.mul(rival.inv(a), b)
        assert standard.face(standard.inv(standard.tau(t)), 0) == \
            standard.mul(a, standard.inv(b))
        assert rival.face(rival.inv(rival.tau(t)), 0) == rival.mul(
            rival.inv(b), a)
    assert standard._faces == rival._faces
    assert standard._faces is not rival._faces
