import itertools
import math
import pickle

import pytest

from cobarlab.perms import (Shuffle, add_assignment, all_index_seqs, all_perms,
                            all_shuffles, compose, concat, inversions, invert,
                            is_index_seq, is_permutation, p, p_inv, phi,
                            phi_perm, psi, psi_inv, remove_assignment, sign,
                            sz_shuffle_split, transposition, xi)


def identity_perm(n: int):
    return tuple(range(1, n + 1))


def brute_inversions(pi):
    return sum(1 for k, l in itertools.combinations(range(len(pi)), 2)
               if pi[k] > pi[l])


def test_counts():
    assert len(list(all_perms(4))) == 24
    assert len(list(all_index_seqs(4))) == 24
    assert len(list(all_shuffles(2, 3))) == math.comb(5, 2)


def test_inversions_against_brute_force():
    for pi in all_perms(5):
        assert inversions(pi) == brute_inversions(pi)
        assert sign(pi) == (-1) ** brute_inversions(pi)


def test_compose_invert():
    for pi in all_perms(4):
        assert compose(pi, invert(pi)) == identity_perm(4)
        assert compose(invert(pi), pi) == identity_perm(4)
    assert compose((2, 1, 3), (3, 1, 2)) == (3, 2, 1)


def test_transposition_and_concat():
    assert transposition(4, 2) == (1, 3, 2, 4)
    assert concat([(2, 1), (1, 3, 2)]) == (2, 1, 3, 5, 4)


def test_p_worked_examples():
    assert p(()) == ()
    assert p((0,)) == (1,)
    assert p((1, 0)) == (2, 1)
    assert p((4, 2, 0, 1, 0)) == (5, 3, 1, 4, 2)


def test_p_bijection_and_parity():
    for n in range(7):
        images = set()
        for iseq in all_index_seqs(n):
            pi = p(iseq)
            assert is_permutation(pi)
            assert p_inv(pi) == iseq
            assert inversions(pi) % 2 == sum(iseq) % 2
            images.add(pi)
        assert len(images) == math.factorial(n)


def test_p_rejects_bad_input():
    with pytest.raises(ValueError):
        p((2, 0))
    with pytest.raises(ValueError):
        p_inv((1, 1))


def test_remove_add_assignment_roundtrip():
    assert remove_assignment((5, 3, 1, 4, 2), 5) == (4, 2, 1, 3)
    for pi in all_perms(5):
        for i in range(1, 6):
            assert add_assignment(remove_assignment(pi, i), i, pi[i - 1]) == pi


def test_psi_roundtrip_exhaustive():
    for n in range(6):
        for k in range(n + 1):
            for pi in all_perms(n):
                sh, sigma, tau = psi_inv(pi, k)
                assert psi(sh, sigma, tau) == pi


def test_psi_worked_example():
    assert psi(Shuffle((2, 5), (1, 3, 4)), (2, 1), (1, 3, 2)) == (3, 2, 5, 4, 1)


def test_shuffle_validation():
    with pytest.raises(ValueError):
        Shuffle((1, 2), (2, 3))  # not a partition
    with pytest.raises(ValueError):
        Shuffle((3, 1), (2,))  # not increasing


def test_shuffle_value_semantics():
    sh = Shuffle((2, 5), (1, 3, 4))
    # the repr of the former dataclass, which the psi_inv doctest prints
    assert repr(sh) == "Shuffle(alpha=(2, 5), beta=(1, 3, 4))"
    assert sh == Shuffle(alpha=(2, 5), beta=(1, 3, 4))
    assert hash(sh) == hash(((2, 5), (1, 3, 4)))
    assert sh != Shuffle((1, 2), (3, 4, 5)) and sh != ((2, 5), (1, 3, 4))
    assert len({sh, Shuffle((2, 5), (1, 3, 4))}) == 1
    copy = pickle.loads(pickle.dumps(sh))
    assert copy == sh and copy is not sh
    with pytest.raises(AttributeError):
        sh.alpha = (1, 2)
    with pytest.raises(AttributeError):
        del sh.beta


def test_xi_agrees_with_value_split():
    for n in range(1, 6):
        for iseq in all_index_seqs(n):
            sh, jseq, kseq = xi(iseq)
            assert is_index_seq(jseq) and is_index_seq(kseq)
            assert sz_shuffle_split(p(iseq)) == (sh, p(jseq), p(kseq))


def test_sz_shuffle_split_worked_example():
    assert sz_shuffle_split((5, 3, 1, 4, 2)) == \
        (Shuffle((3,), (1, 2, 4)), (1,), (3, 1, 2))


def test_phi_agrees_with_phi_perm():
    for n in range(1, 6):
        for iseq in all_index_seqs(n):
            for pos in range(n + 1):
                jseq, q = phi(iseq, pos)
                tpi, qp = phi_perm(p(iseq), pos)
                assert (p(jseq), q) == (tpi, qp)


def test_phi_perm_slot_rule():
    # the removed slot is the (minimal) preimage of the face position
    pi = (3, 1, 2)
    tpi, q = phi_perm(pi, 0)
    assert (tpi, q) == (remove_assignment(pi, 2), 1)
    tpi, q = phi_perm(pi, 3)
    assert (tpi, q) == (remove_assignment(pi, 1), 0)
