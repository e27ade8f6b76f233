import functools
import gc
import weakref
from collections import Counter

import pytest

from cobarlab import szczarba

from cobarlab.chains import add_scaled, check_chain_map, check_coalgebra_map
from cobarlab import cobar, cubes, verify
from cobarlab.cobar import CobarSet
from cobarlab.cubes import CubeMorphism
from cobarlab.loopgroup import LoopGroup
from cobarlab.perms import (all_index_seqs, all_perms, compose, invert, p,
                            phi, psi_inv, remove_assignment, sign,
                            transposition, xi)
from cobarlab.simpcube import (PartitionSimplex, lambda_star, project_simplex,
                               u_pi)
from cobarlab.simplicial import (collapsed_simplex, fixture, nondeg,
                                 normalized_chains, shuffle_pair, sphere)
from cobarlab.szczarba import (CobarToGroupMap, SwappedSzProvider,
                               SzProvider, build_f,
                               check_f_multiplicative, check_f_simplicial,
                               contract_check, f_sz, main_theorem_check,
                               multi_degeneracy, pontryagin,
                               rival_convention_diagnosis, t_sz, word_map)
from cobarlab.triangulate import TriangulatedCubicalSet
from cobarlab.verdict import Verdict
from cobarlab.verify import run_suite
from test_chains import scaled
from test_triangulate import patch_reference_reductions


FIXTURES = {
    "S2": sphere(2),
    "S3": sphere(3),
    "D4sk1": fixture("D4sk1"),
    "TwoLoopsCell": fixture("TwoLoopsCell"),
}


@pytest.fixture(scope="module")
def providers():
    return {name: SzProvider(LoopGroup(sset))
            for name, sset in FIXTURES.items()}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_contract(name, providers):
    assert contract_check(providers[name], 2).ok


def test_operator_words_small_cases(providers):
    prov = providers["TwoLoopsCell"]
    g = prov.group
    t2 = nondeg("T", 2)
    a = nondeg("a", 1)
    # n = 0: the generator word itself
    assert prov.sz((), a) == g.tau(a)
    # n = 1: generator times the degenerate bottom face
    sset = prov.sset
    assert prov.sz((1,), t2) == g.mul(
        g.tau(t2), g.degeneracy(g.tau(sset.face(t2, 0)), 0))
    with pytest.raises(ValueError):
        prov.sz((1,), a)  # dimension mismatch
    with pytest.raises(ValueError):
        prov.sz((1, 2, 3), nondeg("T", 2))


def test_words_beyond_degree_two(providers):
    # one rule serves every n: S_3 acts on a 4-simplex
    prov = providers["D4sk1"]
    word = prov.sz((1, 2, 3), nondeg("01234", 4))
    assert word.n == 3 and word.letters
    assert not hasattr(prov, "max_n")


def reference_factors(provider, pi, x):
    """The hand-written operator words for n <= 2, factor by factor, kept
    as the reference that the recursive rule must reproduce."""
    g, face = provider.group, provider.sset.face
    tau = g.tau
    if not pi:
        return [tau(x)]
    d0x = face(x, 0)
    if pi == (1,):
        return [tau(x), g.degeneracy(tau(d0x), 0)]
    deep = multi_degeneracy(g, tau(face(d0x, 0)), (0, 1))
    if pi == (1, 2):
        return [tau(x), g.degeneracy(tau(d0x), 0), deep]
    assert pi == (2, 1)
    return [g.degeneracy(tau(face(x, 2)), 0),
            g.degeneracy(tau(d0x), 1), deep]


def test_rule_matches_reference_words(providers):
    pairs = 0
    for name, prov in providers.items():
        for n in range(3):
            for x in prov.sset.simplices(n + 1):  # degenerate ones included
                for pi in all_perms(n):
                    assert prov.factors(pi, x) == reference_factors(
                        prov, pi, x), (name, pi, x)
                    pairs += 1
    assert pairs == 130


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_contract_degree_3(name, providers):
    assert contract_check(providers[name], 3).ok


def test_swapped_factor_order_fails_contract_at_degree_3():
    prov = SwappedSzProvider(LoopGroup(fixture("D4sk1")), (2, 1, 3))
    verdict = contract_check(prov, 3)
    assert not verdict.ok
    assert verdict.witness["identity"] == "d-i"
    assert verdict.witness["pi"] == (2, 1, 3)
    assert verdict.witness["x"].dim == 4


def test_main_comparison_degree_3(providers):
    prov = providers["D4sk1"]
    assert main_theorem_check(CobarToGroupMap(prov), word_map(prov, 3)).ok


def index_sequence_t_sz(provider, x):
    """The cochain summed over Szczarba's index sequences, with the sign
    (-1)^(sum of the sequence)."""
    group = provider.group
    out = {}
    if x.dim == 0:
        return out
    if x.dim == 1:
        add_scaled(out, {provider.sz((), x): 1}, 1)
        add_scaled(out, {group.one(0): 1}, -1)
        return out
    for iseq in all_index_seqs(x.dim - 1):
        val = provider.sz(p(iseq), x)
        if not group.is_degenerate(val):
            add_scaled(out, {val: 1}, -1 if sum(iseq) % 2 else 1)
    return out


def test_t_sz_matches_index_sequence_sum(providers):
    simplices = 0
    for prov in providers.values():
        for m in range(1, 5):
            for x in prov.sset.simplices(m):
                assert t_sz(prov, x) == index_sequence_t_sz(prov, x), x
                simplices += 1
    assert simplices == 187


def test_swapped_factor_order_fails_contract():
    prov = SwappedSzProvider(LoopGroup(fixture("D4sk1")))
    verdict = contract_check(prov, 2)
    assert not verdict.ok
    assert verdict.witness["identity"].startswith("d-")


def test_rival_convention_diagnosis():
    d = rival_convention_diagnosis(fixture("TwoLoopsCell"))
    assert not d["plain"].ok
    assert d["plain"].witness["identity"] == "d-i"
    assert not d["swapped"].ok
    assert d["swapped"].witness["identity"] == "d-iii"


@pytest.mark.parametrize("name", ["S2", "S3", "D4sk1"])
def test_operator_word_is_the_product_of_its_factors(name, providers):
    prov = providers[name]
    g = prov.group
    for n in range(3):
        simplices = prov.sset.simplices(n + 1)
        assert simplices
        for x in simplices:  # degenerate ones included
            for pi in all_perms(n):
                factors = prov.factors(pi, x)
                assert len(factors) == n + 1
                product = g.one(n)
                for factor in factors:
                    product = g.mul(product, factor)
                assert prov.sz(pi, x) == product


def reference_contract_check(provider, n_max):
    """Reference contract: the seven permutation families, then Szczarba's
    index-sequence originals (seq-d0, seq-dk, seq-dn, seq-s) evaluated on
    group words as ``provider.sz(p(iseq), x)``.  ``contract_check`` leaves
    the latter to index-level checks, so the two must agree on every
    verdict."""
    group, sset = provider.group, provider.sset

    for n in range(1, n_max + 1):
        for x in sset.simplices(n + 1):
            for tpi in all_perms(n):
                val = provider.sz(tpi, x)
                i = tpi[0]
                pi = remove_assignment(tpi, 1)
                if group.face(val, 0) != provider.sz(pi, sset.face(x, i)):
                    return Verdict.failed(
                        {"identity": "d-i", "x": x, "pi": tpi})
                i = tpi[-1]
                pi = remove_assignment(tpi, n)
                sh, sigma, tau_ = psi_inv(pi, i - 1)
                want = group.mul(*shuffle_pair(
                    group, group, sh,
                    provider.sz(sigma, sset.front_face(x, i)),
                    provider.sz(tau_, sset.back_face(x, i))))
                if group.face(val, n) != want:
                    return Verdict.failed(
                        {"identity": "d-iii", "x": x, "pi": tpi,
                         "got": group.face(val, n), "want": want})
            for pi in all_perms(n):
                for j in range(1, n):
                    rho = compose(pi, transposition(n, j))
                    if (group.face(provider.sz(pi, x), j)
                            != group.face(provider.sz(rho, x), j)):
                        return Verdict.failed(
                            {"identity": "d-ii", "x": x, "pi": pi, "j": j})

    for n in range(0, n_max):
        for x in sset.simplices(n + 1):
            for pi in all_perms(n + 1):
                rev = invert(pi)
                for pval in range(n + 2):
                    if pval == 0:
                        j = rev[0]
                        label = "s-i"
                    elif pval == n + 1:
                        j = rev[n]
                        label = "s-iii"
                    else:
                        j = min(rev[pval - 1], rev[pval])
                        label = "s-ii"
                    tpi = remove_assignment(pi, j)
                    lhs = provider.sz(pi, sset.degeneracy(x, pval))
                    rhs = group.degeneracy(provider.sz(tpi, x), j - 1)
                    if lhs != rhs:
                        return Verdict.failed(
                            {"identity": label, "x": x, "pi": pi, "p": pval})

    for n in range(1, n_max + 1):
        for x in sset.simplices(n + 1):
            for iseq in all_index_seqs(n):
                val = provider.sz(p(iseq), x)
                rest = iseq[1:]
                if (group.face(val, 0)
                        != provider.sz(p(rest), sset.face(x, iseq[0] + 1))):
                    return Verdict.failed(
                        {"identity": "seq-d0", "x": x, "iseq": iseq})
                for k in range(1, n):
                    if iseq[k - 1] > iseq[k]:
                        swapped = (iseq[:k - 1] + (iseq[k], iseq[k - 1] - 1)
                                   + iseq[k + 1:])
                        if (group.face(val, k)
                                != group.face(provider.sz(p(swapped), x), k)):
                            return Verdict.failed(
                                {"identity": "seq-dk", "x": x, "iseq": iseq,
                                 "k": k})
                sh, jseq, kseq = xi(iseq)
                k = len(jseq)
                want = group.mul(*shuffle_pair(
                    group, group, sh,
                    provider.sz(p(jseq), sset.front_face(x, k + 1)),
                    provider.sz(p(kseq), sset.back_face(x, k + 1))))
                if group.face(val, n) != want:
                    return Verdict.failed(
                        {"identity": "seq-dn", "x": x, "iseq": iseq})
    for n in range(0, n_max):
        for x in sset.simplices(n + 1):
            for iseq in all_index_seqs(n + 1):
                for pval in range(n + 2):
                    jseq, q = phi(iseq, pval)
                    lhs = provider.sz(p(iseq), sset.degeneracy(x, pval))
                    rhs = group.degeneracy(provider.sz(p(jseq), x), q)
                    if lhs != rhs:
                        return Verdict.failed(
                            {"identity": "seq-s", "x": x, "iseq": iseq,
                             "p": pval})
    return Verdict.passed()


PROVIDER_KINDS = {
    "plain": SzProvider,
    "swapped-S2": SwappedSzProvider,
    "swapped-S1": lambda group: SwappedSzProvider(group, (1,)),
}


def test_contract_verdicts_match_reference():
    # every fixture, twist and provider (negative controls included) at
    # every n_max the shipped words reach
    failures = Counter()
    cases = 0
    for name, sset in FIXTURES.items():
        for twist in ("standard", "rival"):
            group = LoopGroup(sset, twist=twist)
            for kind, make in PROVIDER_KINDS.items():
                provider = make(group)
                for n_max in range(3):
                    fast = contract_check(provider, n_max)
                    slow = reference_contract_check(provider, n_max)
                    case = (name, twist, kind, n_max)
                    assert repr(fast) == repr(slow), case
                    cases += 1
                    if not fast.ok and n_max == 2:
                        failures[fast.witness["identity"]] += 1
    assert cases == 72
    assert sum(failures.values()) == 9
    assert set(failures) == {"d-i", "d-ii", "d-iii"}


def rival_word(group, x, swapped):
    """The n = 1 candidate word under the rival twist: tau(x) times
    s_0 tau(d_0 x), or the two factors the other way round."""
    a = group.tau(x)
    b = group.degeneracy(group.tau(group.sset.face(x, 0)), 0)
    return group.mul(b, a) if swapped else group.mul(a, b)


def test_rival_candidates_are_the_plain_and_swapped_words():
    group = LoopGroup(fixture("TwoLoopsCell"), twist="rival")
    plain, swapped = SzProvider(group), SwappedSzProvider(group, (1,))
    simplices = group.sset.simplices(2)
    assert simplices
    for x in simplices:
        assert plain.sz((1,), x) == rival_word(group, x, False)
        assert swapped.sz((1,), x) == rival_word(group, x, True)
    with pytest.raises(ValueError):
        SwappedSzProvider(group, ())  # one factor: nothing to swap
    a, b = group.tau(nondeg("a", 1)), group.tau(nondeg("b", 1))
    d = rival_convention_diagnosis(fixture("TwoLoopsCell"))
    assert not d["plain"].ok and not d["swapped"].ok
    assert d["plain"].witness == {"identity": "d-i", "x": nondeg("T", 2),
                                  "pi": (1,)}
    assert d["swapped"].witness == {"identity": "d-iii",
                                    "x": nondeg("T", 2), "pi": (1,),
                                    "got": group.mul(a, b),
                                    "want": group.mul(b, a)}


def test_t_sz_values(providers):
    prov = providers["S2"]
    g = prov.group
    sigma = nondeg("sigma", 2)
    # the single length-one index sequence contributes the generator word;
    # its companion factor erases over the degenerate bottom face
    assert t_sz(prov, sigma) == {g.tau(sigma): 1}
    # the vertex contributes nothing
    assert t_sz(prov, prov.sset.nondegenerate(0)[0]) == {}


def normalized_boundary(sset, x, keep):
    """Alternating face sum of x over the faces that ``keep`` accepts, each
    face taken afresh."""
    d = {}
    n = sset.dim(x)
    if n == 0:
        return d
    for i in range(n + 1):
        fx = sset.face(x, i)
        if keep(fx):
            add_scaled(d, {fx: 1}, -1 if i % 2 else 1)
    return d


def front_back_diagonal(sset, x, keep):
    """Sum of (front_face(x, i), back_face(x, i)) over the pairs whose two
    faces ``keep`` accepts, each face taken afresh."""
    # fronts[i] and backs[i] are each one face of the one before them
    n = sset.dim(x)
    fronts = [x]
    backs = [x]
    for i in range(n, 0, -1):
        fronts.append(sset.face(fronts[-1], i))
        backs.append(sset.face(backs[-1], 0))
    fronts.reverse()
    delta = {}
    for front, back in zip(fronts, backs):
        if keep(front) and keep(back):
            add_scaled(delta, {(front, back): 1}, 1)
    return delta


def reference_group_boundary(group, chain):
    """Alternating face sum on normalized group chains, kept as the
    reference that the group complex of ``word_map`` must reproduce."""
    keep = lambda g: not group.is_degenerate(g)
    out = {}
    for g, c in chain.items():
        add_scaled(out, normalized_boundary(group, g, keep), c)
    return out


def reference_group_diagonal(group, chain):
    """Front/back coproduct on normalized group chains, as a chain over
    pairs of group words; the reference for the same complex."""
    keep = lambda g: not group.is_degenerate(g)
    out = {}
    for g, c in chain.items():
        add_scaled(out, front_back_diagonal(group, g, keep), c)
    return out


def test_group_chains_match_reference():
    words = 0
    # the word map needs a 1-reduced presentation, so TwoLoopsCell is out
    for name in ("S2", "S3", "D4sk1"):
        prov = SzProvider(LoopGroup(FIXTURES[name]))
        fmap = word_map(prov, 2)
        for w, value in fmap.mapping.items():
            assert fmap.target.boundary_chain(value) == (
                reference_group_boundary(prov.group, value)), (name, w)
            assert fmap.target.diagonal_chain(value) == (
                reference_group_diagonal(prov.group, value)), (name, w)
            words += 1
    assert words > 0


def test_pontryagin_unit_and_boundary(providers):
    prov = providers["TwoLoopsCell"]
    g = prov.group
    a = {g.tau(nondeg("a", 1)): 1}
    unit = {g.one(0): 1}
    assert pontryagin(g, unit, a) == a
    assert pontryagin(g, a, unit) == a
    # boundary of a product of degree-zero chains vanishes termwise
    assert reference_group_boundary(g, a) == {}


@pytest.mark.parametrize("name", ["S2", "D4sk1"])
def test_word_map_is_twisting_cochain_image(name, providers):
    fmap = word_map(providers[name], 2)
    assert check_chain_map(fmap).ok
    assert check_coalgebra_map(fmap).ok


def test_word_map_checks_catch_a_negated_value():
    prov = SzProvider(LoopGroup(FIXTURES["D4sk1"]))
    fmap = word_map(prov, 2)
    cube = next(cube for cube in fmap.source.basis[2]
                if fmap.target.boundary_chain(fmap.mapping[cube]))
    # a new chain: the provider's memo keeps the true value
    fmap.mapping[cube] = scaled(fmap.mapping[cube], -1)
    for check, label in ((check_chain_map, "chain_map"),
                         (check_coalgebra_map, "coalgebra_map")):
        verdict = check(fmap)
        assert not verdict.ok
        assert verdict.witness["check"] == label
        assert verdict.witness["label"] == cube


def test_word_map_needs_a_1_reduced_presentation():
    # the cobar construction refuses the edges a and b of TwoLoopsCell
    provider = SzProvider(LoopGroup(FIXTURES["TwoLoopsCell"]))
    with pytest.raises(ValueError, match="1-reduced"):
        word_map(provider, 2)


@pytest.mark.parametrize("name, rank", [("S2", 1), ("D4sk1", 6)])
def test_word_map_target_is_a_complex_of_its_own(name, rank):
    provider = SzProvider(LoopGroup(FIXTURES[name]))
    target = word_map(provider, 2).target
    group = provider.group
    basis = {g for words in target.basis.values() for g in words}
    # every nondegenerate face of a basis word is a basis word
    for g in basis:
        for i in range(g.n + 1 if g.n else 0):
            face = group.face(g, i)
            assert group.is_degenerate(face) or face in basis, (g, i)
    # all three raised KeyError while faces of basis words were missing
    assert target.check_d_squared().ok
    assert target.check_coalgebra().ok
    h1 = target.homology(1)
    # the rank of H_1 of the loop space: one class per 2-sphere
    assert (h1.betti, tuple(h1.torsion)) == (rank, ())


def test_word_map_computes_each_group_face_once(monkeypatch):
    # the closure walk keeps the faces of every word it visits, and the
    # group chains read them there
    calls = Counter()
    real_face = LoopGroup.face

    def counted(group, a, i):
        calls[a, i] += 1
        return real_face(group, a, i)

    monkeypatch.setattr(LoopGroup, "face", counted)
    target = word_map(SzProvider(LoopGroup(FIXTURES["D4sk1"])), 2).target
    assert sum(calls.values()) == 835 and set(calls.values()) == {1}
    assert [len(target.basis[d]) for d in range(3)] == [1, 110, 205]


def test_word_map_files_each_group_word_by_its_dimension(monkeypatch):
    # a degree-2 word whose value is a degree-1 word's lands in dimension
    # 1 of the group chains, and the degree check names it
    prov = SzProvider(LoopGroup(FIXTURES["D4sk1"]))
    cset = CobarSet(prov.sset)
    (w1, _), cube = cset.normalized(1)[0], cset.normalized(2)[0]
    true_f_sz = szczarba.f_sz
    monkeypatch.setattr(szczarba, "f_sz", lambda provider, w: true_f_sz(
        provider, w1 if w == cube[0] else w))
    fmap = word_map(prov, 2)
    g = next(iter(fmap.mapping[cube]))
    assert g.n == 1 and fmap.target.degree_of(g) == 1
    verdict = check_chain_map(fmap)
    assert verdict.witness == {"check": "degree", "label": cube, "target": g}


@pytest.mark.parametrize("m", [4, 5])
def test_group_chain_filter_drops_degenerate_faces(m, monkeypatch):
    # over Delta^m/sk_2 the operator words have degenerate faces at
    # degree 2, which the normalized group chains must drop
    sset = collapsed_simplex(m, 2)
    assert sset.validate_presentation(4).ok and sset.one_reduced
    assert check_chain_map(word_map(SzProvider(LoopGroup(sset)), 2)).ok
    group = LoopGroup(sset)

    def unfiltered(face, basis):
        # the degenerate faces of the basis words join the basis, so that
        # the group boundary keeps them
        with_faces = {n: dict(words) for n, words in basis.items()}
        for n, words in basis.items():
            for g in words:
                for i in range(n + 1 if n else 0):
                    d = face(g, i)
                    if group.is_degenerate(d):
                        with_faces.setdefault(n - 1, {})[d] = None
        return normalized_chains(face, with_faces)

    monkeypatch.setattr(szczarba, "normalized_chains", unfiltered)
    verdict = check_chain_map(word_map(SzProvider(group), 2))
    assert not verdict.ok
    assert verdict.witness["check"] == "chain_map"
    assert verdict.witness["label"] == ((nondeg("0123", 3),), ())


@pytest.mark.parametrize("name", ["S2", "D4sk1"])
def test_glued_map(name, providers):
    f = CobarToGroupMap(providers[name])
    verdict = build_f(f, 2)
    assert verdict.ok
    assert check_f_simplicial(f, 2).ok
    assert check_f_multiplicative(f, 1).ok


@pytest.mark.parametrize("name", ["S2", "D4sk1"])
def test_main_comparison(name, providers):
    prov = providers[name]
    assert main_theorem_check(CobarToGroupMap(prov), word_map(prov, 2)).ok


def test_multiplicative_check_builds_one_reader_per_cube_and_product(
        monkeypatch):
    # D4sk1 has 148 cubes of degree <= 2 and 416 pairs of them whose degrees
    # sum to <= 2: one reader each, none per pair of top simplices
    f = CobarToGroupMap(SzProvider(LoopGroup(FIXTURES["D4sk1"])))
    calls = Counter()
    real_pieces = CobarToGroupMap.pieces

    def counted(self, cube):
        calls[cube] += 1
        return real_pieces(self, cube)

    monkeypatch.setattr(CobarToGroupMap, "pieces", counted)
    assert check_f_multiplicative(f, 2).ok
    assert sum(calls.values()) == 564


def test_glued_map_checks_fail_with_the_gluing_witness():
    prov = SwappedSzProvider(LoopGroup(fixture("D4sk1")))
    f = CobarToGroupMap(prov)
    verdicts = [build_f(f, 2), check_f_simplicial(f, 2),
                check_f_multiplicative(f, 2),
                main_theorem_check(f, word_map(prov, 2))]
    for verdict in verdicts:
        assert not verdict.ok
        assert verdict.witness["check"] == "family_compatibility"
        assert verdict.witness["letter"] == nondeg("0123", 3)


def test_main_theorem_suite_fails_with_witnesses_on_swapped_words(
        monkeypatch):
    def provider(group):
        swapped = group.sset.name == "D4sk1"
        return (SwappedSzProvider if swapped else SzProvider)(group)

    monkeypatch.setattr(szczarba, "SzProvider", provider)
    report = run_suite("main-theorem")
    assert not report.ok
    checks = {check.name: check for check in report.checks}
    for name in ("cochain-map-D4sk1", "glue-D4sk1", "comparison-D4sk1"):
        assert checks[name].status == "fail", name
        assert checks[name].witness is not None, name
    assert all(check.status == "pass" for name, check in checks.items()
               if name.endswith("-S2"))


def test_glued_map_evaluates_each_piece_once(monkeypatch):
    glued_families = []
    calls = Counter()
    real_extend_family = szczarba.extend_family

    def counting_extend_family(n, family, target):
        evaluate, verdict = real_extend_family(n, family, target)
        letter = len(glued_families)
        glued_families.append(frozenset(family.items()))

        def counted(u):
            calls[letter, u] += 1
            return evaluate(u)

        return counted, verdict

    monkeypatch.setattr(szczarba, "extend_family", counting_extend_family)
    sset = FIXTURES["D4sk1"]
    verdict = build_f(CobarToGroupMap(SzProvider(LoopGroup(sset))), 2)
    assert verdict.ok
    # each letter's family is checked and glued once ...
    assert len(set(glued_families)) == len(glued_families)
    # ... and each (letter, piece) reaches its evaluator once
    assert calls and set(calls.values()) == {1}


def test_glued_map_projects_only_on_a_memo_miss(monkeypatch):
    evaluations = Counter()
    pieces = Counter()
    real_extend_family = szczarba.extend_family
    real_partition_simplex = szczarba.PartitionSimplex

    def counting_extend_family(n, family, target):
        evaluate, verdict = real_extend_family(n, family, target)

        def counted(u):
            evaluations[u] += 1
            return evaluate(u)

        return counted, verdict

    def counting_partition_simplex(n, ks, dim):
        piece = real_partition_simplex(n, ks, dim)
        pieces[piece] += 1
        return piece

    monkeypatch.setattr(szczarba, "extend_family", counting_extend_family)
    monkeypatch.setattr(szczarba, "PartitionSimplex",
                        counting_partition_simplex)
    sset = FIXTURES["D4sk1"]
    verdict = build_f(CobarToGroupMap(SzProvider(LoopGroup(sset))), 2)
    assert verdict.ok and evaluations
    # every piece that is built goes straight to a letter evaluator
    assert pieces == evaluations


def record_pieces(monkeypatch, record):
    """Patch the glued map so that every read of a cube's pieces, by an
    evaluator or by a check, also calls ``record(f, cube, u, pieces)``."""
    real_pieces = CobarToGroupMap.pieces

    def pieces(self, cube):
        read = real_pieces(self, cube)

        def recorded(u):
            out = read(u)
            record(self, cube, u, out)
            return out

        return recorded

    monkeypatch.setattr(CobarToGroupMap, "pieces", pieces)


@pytest.mark.parametrize("name", ["S2", "D4sk1"])
def test_glued_map_values_match_fresh_map(name, providers, monkeypatch):
    seen = {}

    def record(f, cube, u, pieces):
        value = f.group.product(u.dim, pieces)
        seen.setdefault((cube, u), set()).add(value)

    record_pieces(monkeypatch, record)
    prov = providers[name]
    f = CobarToGroupMap(prov)
    verdict = build_f(f, 2)
    monkeypatch.undo()
    assert verdict.ok and seen
    for (cube, u), values in seen.items():
        fresh = CobarToGroupMap(prov).evaluator(cube)(u)
        assert values == {fresh}
        assert f.evaluator(cube)(u) == fresh


def test_main_theorem_suite_glues_each_letter_once(monkeypatch):
    glued = Counter()
    real_extend_family = szczarba.extend_family

    def counting_extend_family(n, family, target):
        glued[target.sset.name, frozenset(family.items())] += 1
        return real_extend_family(n, family, target)

    monkeypatch.setattr(szczarba, "extend_family", counting_extend_family)
    assert run_suite("main-theorem").ok
    # one glued map per fixture, shared by the checks that evaluate it
    assert {name for name, _ in glued} == {"S2", "D4sk1"}
    assert set(glued.values()) == {1}


def test_main_theorem_suite_builds_one_source_complex_per_fixture(
        monkeypatch):
    # the word map's source is the cobar cubical chains, which the
    # cochain-map, comultiplicative and comparison checks share; the
    # tensor-algebra model is left to the cobar-iso suite
    built = Counter()

    def counting(name, real):
        def build(space, max_deg):
            built[name, getattr(space, "sset", space).name] += 1
            return real(space, max_deg)
        return build

    for module, name in ((cubes, "cubical_chains"), (cobar, "omega_complex")):
        count = counting(name, getattr(module, name))
        for user in (module, cobar, szczarba, verify):
            if hasattr(user, name):
                monkeypatch.setattr(user, name, count)
    assert run_suite("main-theorem").ok
    assert built == {("cubical_chains", "S2"): 1,
                     ("cubical_chains", "D4sk1"): 1}


def reference_t_sz(provider, x):
    """``t_sz`` without the provider's memo."""
    group = provider.group
    n = x.dim
    out = {}
    if n == 0:
        return out
    for pi in all_perms(n - 1):
        val = provider.sz(pi, x)
        if not group.is_degenerate(val):
            add_scaled(out, {val: 1}, sign(pi))
    if n == 1:
        add_scaled(out, {group.one(0): 1}, -1)
    return out


def reference_f_sz(provider, word):
    """``f_sz`` without the provider's memo: the per-letter cochains
    multiplied from the unit, left to right."""
    group = provider.group
    out = {group.one(0): 1}
    for x in word:
        out = pontryagin(group, out, reference_t_sz(provider, x))
    return out


def memo_words(sset, max_deg):
    cset = CobarSet(sset)
    return [w for d in range(max_deg + 1) for w, _ in cset.normalized(d)]


@pytest.mark.parametrize("name", ["S2", "D4sk1"])
def test_memoized_cochains_match_reference(name):
    prov = SzProvider(LoopGroup(FIXTURES[name]))
    words = memo_words(prov.sset, 3)
    assert words
    for w in words:
        # same terms in the same order, so reports print alike
        assert list(f_sz(prov, w).items()) == list(
            reference_f_sz(prov, w).items()), w
        for x in w:
            assert list(t_sz(prov, x).items()) == list(
                reference_t_sz(prov, x).items()), x
    # every proper prefix of a word is stored on the way to it
    assert set(prov._f_chains) == {w[:k] for w in words
                                   for k in range(len(w) + 1)}
    assert f_sz(prov, words[-1]) is f_sz(prov, words[-1])


def test_providers_share_no_memo_entry():
    sset = FIXTURES["D4sk1"]
    first, second = (SzProvider(LoopGroup(sset)) for _ in range(2))
    words = memo_words(sset, 2)
    for prov in (first, second):
        for w in words:
            f_sz(prov, w)
    assert first._f_chains == second._f_chains
    assert first._t_chains == second._t_chains
    for memo in ("_t_chains", "_f_chains"):
        chains = [{id(c) for c in getattr(prov, memo).values()}
                  for prov in (first, second)]
        assert chains[0] and not chains[0] & chains[1]
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None


def test_main_theorem_checks_leave_the_memo_unchanged():
    provider = SzProvider(LoopGroup(FIXTURES["D4sk1"]))
    for w in memo_words(provider.sset, 2):
        f_sz(provider, w)
    before = {memo: {key: (chain, list(chain.items()))
                     for key, chain in getattr(provider, memo).items()}
              for memo in ("_t_chains", "_f_chains")}
    f = CobarToGroupMap(provider)
    assert build_f(f, 2).ok
    assert check_f_simplicial(f, 2).ok
    assert check_f_multiplicative(f, 1).ok
    fmap = word_map(provider, 2)
    assert main_theorem_check(f, fmap).ok
    assert check_chain_map(fmap).ok
    assert check_coalgebra_map(fmap).ok
    for memo, entries in before.items():
        stored = getattr(provider, memo)
        for key, (chain, items) in entries.items():
            assert stored[key] is chain and list(chain.items()) == items, key
    # what the checks added equals the unmemoized values as well
    for x, chain in provider._t_chains.items():
        assert chain == reference_t_sz(provider, x), x
    for w, chain in provider._f_chains.items():
        assert chain == reference_f_sz(provider, w), w


# ----- the glued-map checks against their pre-bracket references -------------------


def reference_evaluate(f, cube, u, memo):
    """The glued map on (cube, u) as computed before operator prefixes were
    pushed on the bracket and pieces were keyed by small values: the
    operators pushed onto u one by one through ``lambda_star``, every
    letter's piece projected and evaluated, and the pieces multiplied,
    one-letter cubes included.  ``memo``, a dict the caller owns, keeps
    each pushed simplex under ``(ops, u)`` and each piece's value under
    its letter object, window and dimension."""
    base, ops = cube
    if u.n != f.cset.dim(cube):
        raise ValueError("coordinate count mismatch")
    if ops:
        key = (ops, u)
        pushed = memo.get(key)
        if pushed is None:
            pushed = u
            for kind, i in ops:
                d = pushed.n
                pushed = lambda_star(CubeMorphism.sigma(d, i) if kind == "s"
                                     else CubeMorphism.gamma(d, i), pushed)
            memo[key] = pushed
        u = pushed
    ks, m = u.ks, u.dim
    factors = []
    pos = 0
    for x in base:
        k = x.dim - 1
        key = (x, ks[pos:pos + k], m)
        value = memo.get(key)
        if value is None:
            value = memo[key] = f._letter(x)(
                project_simplex(u, pos + 1, pos + k))
        factors.append(value)
        pos += k
    return f.group.product(m, factors)


def reference_evaluator():
    """:func:`reference_evaluate` as ``evaluate(f, cube, u)``, with one memo
    per glued map, dropped with the map."""
    memos = weakref.WeakKeyDictionary()

    def evaluate(f, cube, u):
        return reference_evaluate(f, cube, u, memos.setdefault(f, {}))

    return evaluate


def reference_operator_image(cset, z, op):
    """The image of the cube z under the generator named by ``op``."""
    if op[0] == "s":
        return cset.degen(z, op[1])
    if op[0] == "g":
        return cset.conn(z, op[1])
    return cset.face(z, op[1], op[2])


@szczarba._fails_on_incompatible_family
def reference_build_f(f, max_dim, evaluate):
    """``build_f`` before each cube kept its right-hand values: both sides
    of every identity evaluated afresh, in the same order, by
    ``evaluate(f, cube, u)``."""
    cset = f.cset
    for n in range(max_dim + 1):
        ups = [u_pi(pi) for pi in all_perms(n + 1)]
        downs = [u_pi(pi) for pi in all_perms(n - 1)] if n else []
        generators = (
            [(("s", i), CubeMorphism.sigma(n + 1, i), ups)
             for i in range(1, n + 2)]
            + [(("g", i), CubeMorphism.gamma(n + 1, i), ups)
               for i in range(1, n + 1)]
            + [(("d", eps, i), CubeMorphism.delta(n, eps, i), downs)
               for eps in (0, 1) for i in range(1, n + 1)])
        checks = [(op, [(u, lambda_star(lam, u)) for u in us])
                  for op, lam, us in generators]
        for z in cset.cubes(n):
            for op, pairs in checks:
                oz = reference_operator_image(cset, z, op)
                for u, pushed in pairs:
                    lhs = evaluate(f, oz, u)
                    rhs = evaluate(f, z, pushed)
                    if lhs != rhs:
                        return Verdict.failed(
                            {"op": op, "z": z, "u": u,
                             "lhs": lhs, "rhs": rhs})
    return Verdict.passed()


@szczarba._fails_on_incompatible_family
def reference_check_f_simplicial(f, max_dim, evaluate):
    """``check_f_simplicial`` before it kept its values: every simplex it
    meets evaluated afresh, in the same order, by ``evaluate(f, cube,
    u)``."""
    tri = TriangulatedCubicalSet(f.cset, max_dim)
    group = f.group

    def value(ts):
        return evaluate(f, ts.cube, ts.simplex)

    for m in range(max_dim + 1):
        for ts in tri.nondegenerate(m):
            val = value(ts)
            for i in range(m + 1):
                if m >= 1 and group.face(val, i) != value(tri.face(ts, i)):
                    return Verdict.failed({"check": "face", "ts": ts, "i": i})
                if (m + 1 <= max_dim
                        and group.degeneracy(val, i)
                        != value(tri.degeneracy(ts, i))):
                    return Verdict.failed(
                        {"check": "degeneracy", "ts": ts, "i": i})
    return Verdict.passed()


GLUED_PROVIDERS = {"plain": SzProvider, "swapped": SwappedSzProvider}


@pytest.mark.parametrize("kind", sorted(GLUED_PROVIDERS))
@pytest.mark.parametrize("name", ["S2", "S3", "D4sk1"])
def test_glued_map_verdicts_match_reference(name, kind, monkeypatch):
    provider = GLUED_PROVIDERS[kind](LoopGroup(FIXTURES[name]))
    built = build_f(CobarToGroupMap(provider), 2)
    reference = reference_build_f(CobarToGroupMap(provider), 2,
                                  reference_evaluator())
    assert built == reference and repr(built) == repr(reference)
    simplicial = check_f_simplicial(CobarToGroupMap(provider), 2)
    with monkeypatch.context() as patch:
        reductions = patch_reference_reductions(patch)
        reference = reference_check_f_simplicial(
            CobarToGroupMap(provider), 2, reference_evaluator())
    assert simplicial == reference and repr(simplicial) == repr(reference)
    assert reductions
    if (name, kind) == ("D4sk1", "swapped"):
        for verdict in (built, simplicial):
            assert verdict.witness["check"] == "family_compatibility"
            assert verdict.witness["pi"] == (1, 2)
            assert verdict.witness["j"] == 1
            assert verdict.witness["letter"] == nondeg("0123", 3)
    else:
        assert built.ok and simplicial.ok


def test_corrupted_letter_value_fails_glue_like_reference(monkeypatch):
    # the letter 0123 answers its value on the edge <|2|1> on <|1|2>
    letter = nondeg("0123", 3)
    edge, other = PartitionSimplex(2, (1, 2), 1), PartitionSimplex(2, (2, 1), 1)
    real_letter = CobarToGroupMap._letter

    def corrupted_letter(self, x):
        evaluate = real_letter(self, x)
        if x != letter:
            return evaluate
        return lambda u: evaluate(other if u == edge else u)

    monkeypatch.setattr(CobarToGroupMap, "_letter", corrupted_letter)
    provider = SzProvider(LoopGroup(FIXTURES["D4sk1"]))
    verdict = build_f(CobarToGroupMap(provider), 2)
    reference = reference_build_f(CobarToGroupMap(provider), 2,
                                  reference_evaluator())
    assert not verdict.ok
    assert verdict == reference and repr(verdict) == repr(reference)
    w = verdict.witness
    assert (w["op"], w["z"], w["u"]) == (("d", 0, 2), ((letter,), ()),
                                         u_pi((1,)))


def test_build_f_evaluates_each_pair_once_per_cube(monkeypatch):
    calls = Counter()

    def record(f, cube, u, pieces):
        calls[cube, u] += 1

    record_pieces(monkeypatch, record)
    provider = SzProvider(LoopGroup(FIXTURES["D4sk1"]))
    assert build_f(CobarToGroupMap(provider), 2).ok
    # 9,426 before each cube kept its right-hand values
    assert sum(calls.values()) == 6118
    # a left-hand side reads a top simplex (dimension = coordinates); a
    # right-hand side reads a pushforward of one, which changes the
    # dimension or the coordinate count by one, so it names its cube z
    rhs = [count for (cube, u), count in calls.items() if u.dim != u.n]
    assert rhs and max(rhs) == 1


@pytest.mark.parametrize("ops", [
    (("s", 4),), (("s", 0),), (("g", 3),), (("g", 0),),
    (("s", 1), ("g", 3)),
], ids=["s4", "s0", "g3", "g0", "s1-g3"])
def test_evaluate_refuses_out_of_range_operators(ops):
    f = CobarToGroupMap(SzProvider(LoopGroup(FIXTURES["D4sk1"])))
    # the letter gives two coordinates, each operator one more
    top = u_pi(tuple(range(1, 3 + len(ops))))
    with pytest.raises(ValueError, match="out of range"):
        f.evaluator(((nondeg("0123", 3),), ops))(top)


def test_evaluate_refuses_a_coordinate_count_mismatch():
    f = CobarToGroupMap(SzProvider(LoopGroup(FIXTURES["D4sk1"])))
    with pytest.raises(ValueError, match="coordinate count mismatch"):
        f.evaluator(((nondeg("0123", 3),), (("s", 1),)))(u_pi((1, 2)))


# ----- the provider's store of words and the simplicial check's values -------------


def test_contract_builds_each_word_once(monkeypatch):
    calls = Counter()
    real_factors = SzProvider.factors

    def counting_factors(self, pi, x):
        calls[pi, x] += 1
        return real_factors(self, pi, x)

    monkeypatch.setattr(SzProvider, "factors", counting_factors)
    assert contract_check(SzProvider(LoopGroup(FIXTURES["D4sk1"])), 2).ok
    # 612 calls before the provider kept its words
    assert sum(calls.values()) == 84 and set(calls.values()) == {1}


def test_check_f_simplicial_evaluates_each_simplex_once(monkeypatch):
    calls = Counter()

    def record(f, cube, u, pieces):
        calls[cube, u] += 1

    record_pieces(monkeypatch, record)
    provider = SzProvider(LoopGroup(FIXTURES["D4sk1"]))
    assert check_f_simplicial(CobarToGroupMap(provider), 2).ok
    # 1,417 calls before the check kept its values
    assert sum(calls.values()) == 557 and set(calls.values()) == {1}


def unstored_sz(provider, pi, x):
    return provider.group.product(len(pi), provider.factors(pi, x))


@pytest.mark.parametrize("twist", ["standard", "rival"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_stored_words_match_unstored_products(name, twist):
    group = LoopGroup(FIXTURES[name], twist=twist)
    providers = (SzProvider(group), SwappedSzProvider(group))
    if twist == "standard":
        assert contract_check(providers[0], 3).ok
    pairs = 0
    for provider in providers:
        for n in range(4):
            for x in group.sset.simplices(n + 1):
                for pi in all_perms(n):
                    word = provider.sz(pi, x)
                    assert word == unstored_sz(provider, pi, x), (pi, x)
                    assert provider.sz(pi, x) is word
        assert provider._words
        for (pi, x), word in provider._words.items():
            assert word == unstored_sz(provider, pi, x), (pi, x)
            pairs += 1
    assert pairs


SWAPS = (((2, 1), 2), ((2, 1, 3), 3))


def swapped_word_maps():
    """The comparison's input for each swapped provider, by permutation."""
    return {pi: word_map(SwappedSzProvider(LoopGroup(FIXTURES["D4sk1"]), pi),
                         dim) for pi, dim in SWAPS}


def negative_control_verdicts(glued_checks, fmaps):
    """The contract verdicts and the verdicts of the four glued-map checks
    (``glued_checks``, by name, each called with the map, the degree and
    the word map in ``fmaps``) for both swapped providers on D4sk1, and
    the rival-convention diagnosis, by their reprs."""
    out = {}
    for pi, dim in SWAPS:
        def fresh():
            return SwappedSzProvider(LoopGroup(FIXTURES["D4sk1"]), pi)
        out[pi, "contract"] = contract_check(fresh(), dim)
        fmap = fmaps[pi]
        for name, check in glued_checks.items():
            out[pi, name] = check(CobarToGroupMap(fresh()), dim, fmap)
    diagnosis = rival_convention_diagnosis(fixture("TwoLoopsCell"))
    out["rival"] = sorted(diagnosis.items())
    return {key: repr(value) for key, value in out.items()}


def test_negative_controls_match_unstored_reference(monkeypatch):
    from test_loopgroup import reference_degeneracy, reference_face

    fmaps = swapped_word_maps()  # one input for both sides
    stored = negative_control_verdicts({
        "glue": lambda f, d, fmap: build_f(f, d),
        "simplicial": lambda f, d, fmap: check_f_simplicial(f, d),
        "multiplicative": lambda f, d, fmap: check_f_multiplicative(f, d),
        "comparison": lambda f, d, fmap: main_theorem_check(f, fmap)},
        fmaps)
    evaluate = reference_evaluator()
    with monkeypatch.context() as patch:
        patch.setattr(SzProvider, "sz", unstored_sz)
        patch.setattr(LoopGroup, "face", reference_face)
        patch.setattr(LoopGroup, "degeneracy", reference_degeneracy)
        # the map as it was before operator prefixes were pushed on the
        # bracket and pieces were keyed by small values
        patch.setattr(CobarToGroupMap, "evaluator",
                      lambda f, cube: functools.partial(evaluate, f, cube))
        reductions = patch_reference_reductions(patch)
        unstored = negative_control_verdicts({
            "glue": lambda f, d, fmap: reference_build_f(f, d, evaluate),
            "simplicial": lambda f, d, fmap: reference_check_f_simplicial(
                f, d, evaluate),
            "multiplicative": lambda f, d, fmap: check_f_multiplicative(f, d),
            "comparison": lambda f, d, fmap: main_theorem_check(f, fmap)},
            fmaps)
    assert stored == unstored and reductions
    for key, verdict in stored.items():
        if key != "rival":
            assert verdict.startswith("Verdict(ok=False"), key
    # the four glued-map checks fail on the family that does not glue,
    # with one witness
    for pi, _ in SWAPS:
        witnesses = {stored[pi, name] for name in (
            "glue", "simplicial", "multiplicative", "comparison")}
        assert len(witnesses) == 1
        assert "family_compatibility" in witnesses.pop()


# ----- the small-key glued map against the object-keyed one ------------------------


def glued_map_reads(f, monkeypatch):
    """Every (cube, u) that the four glued-map checks read at degree 2,
    with the value the map gave, after checking that all four pass."""
    reads = {}

    def record(g, cube, u, pieces):
        value = pieces[0] if len(pieces) == 1 else g.group.product(
            u.dim, pieces)
        reads.setdefault((cube, u), []).append(value)

    with monkeypatch.context() as patch:
        record_pieces(patch, record)
        assert build_f(f, 2).ok
        assert check_f_simplicial(f, 2).ok
        assert main_theorem_check(f, word_map(f.provider, 2)).ok
        assert check_f_multiplicative(f, 2).ok
    return reads


@pytest.mark.parametrize("name", ["S2", "S3", "D4sk1"])
def test_small_keys_give_the_object_keyed_values(name, monkeypatch):
    provider = SzProvider(LoopGroup(FIXTURES[name]))
    f = CobarToGroupMap(provider)
    reads = glued_map_reads(f, monkeypatch)
    reference = CobarToGroupMap(provider)
    memo = {}
    one_letter = 0
    for (cube, u), got in reads.items():
        want = reference_evaluate(reference, cube, u, memo)
        assert all(value == want for value in got), (cube, u)
        value = f.evaluator(cube)(u)
        assert value == want
        if len(cube[0]) == 1:
            # a one-letter cube hands out its stored piece
            assert all(v is value for v in got), (cube, u)
            one_letter += 1
    assert one_letter and len(reads) > one_letter
    # one piece per (letter, window, m), as before; the memo's other keys
    # are the (ops, u) of its pushes
    assert len(f._values) == sum(len(key) == 3 for key in memo)


def test_a_count_mismatch_is_refused_before_any_piece(monkeypatch):
    def no_piece(self, x, key):
        raise AssertionError("a piece was built")

    monkeypatch.setattr(CobarToGroupMap, "_piece", no_piece)
    f = CobarToGroupMap(SzProvider(LoopGroup(FIXTURES["D4sk1"])))
    letters = (nondeg("0123", 3), nondeg("012", 2))
    for cube, u in [((letters, ()), u_pi((1, 2))),
                    ((letters, ()), u_pi((1, 2, 3, 4))),
                    ((letters, (("s", 1),)), u_pi((1, 2, 3)))]:
        with pytest.raises(ValueError, match="coordinate count mismatch"):
            f.evaluator(cube)(u)


def test_base_letters_outside_the_presentation_are_refused():
    s2, s3 = FIXTURES["S2"], FIXTURES["S3"]
    f = CobarToGroupMap(SzProvider(LoopGroup(s3)))
    sigma = nondeg("sigma", 3)
    top = u_pi((1, 2))
    value = f.evaluator(((sigma,), ()))(top)
    # s_0 of the 2-sphere's cell has the name and the dimension of the
    # 3-sphere's cell, so a key by name and window alone would read the
    # value just stored
    degenerate = s2.degeneracy(nondeg("sigma", 2), 0)
    assert (degenerate.gen, degenerate.dim) == (sigma.gen, sigma.dim)
    with pytest.raises(ValueError, match="nondegenerate"):
        f.evaluator(((degenerate,), ()))(top)
    # a letter of the same name and another dimension, or of a name the
    # presentation lacks, has no glued family here
    for letter in (nondeg("sigma", 2), nondeg("0123", 3)):
        k = letter.dim - 1
        with pytest.raises(ValueError, match="not a base letter over S3"):
            f.evaluator(((letter,), ()))(u_pi(tuple(range(1, k + 1))))
    # an equal letter built apart from the presentation is the same letter
    assert f.evaluator(((nondeg("sigma", 3),), ()))(top) is value
    assert f.evaluator(((fixture("S3").nondegenerate(3)[0],), ()))(
        top) is value
