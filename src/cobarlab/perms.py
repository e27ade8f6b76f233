"""Permutations, shuffles and their index-sequence encodings.

A permutation of ``{1, ..., n}`` is a tuple in one-line notation:
``pi[k-1]`` is the image of ``k``.  The degree of a permutation is its
inversion count; the sign is ``(-1) ** degree``.

An index sequence of length ``n`` is a tuple ``(i_1, ..., i_n)`` with
``0 <= i_k <= n - k``.  These encode permutations bijectively via :func:`p`
and parametrize the summands of the Szczarba operator.

>>> p((4, 2, 0, 1, 0))
(5, 3, 1, 4, 2)
>>> inversions((5, 3, 1, 4, 2)) % 2 == sum((4, 2, 0, 1, 0)) % 2
True
"""

from __future__ import annotations

import itertools

from .verdict import Frozen

Permutation = tuple  # one-line notation, values 1..n
IndexSeq = tuple  # (i_1, ..., i_n) with 0 <= i_k <= n - k


def is_permutation(pi) -> bool:
    n = len(pi)
    return sorted(pi) == list(range(1, n + 1))


def inversions(pi: Permutation) -> int:
    """Number of pairs k < l with pi(k) > pi(l)."""
    n = len(pi)
    return sum(1 for k in range(n) for l in range(k + 1, n) if pi[k] > pi[l])


def sign(pi: Permutation) -> int:
    return -1 if inversions(pi) % 2 else 1


def compose(pi: Permutation, rho: Permutation) -> Permutation:
    """(pi o rho)(k) = pi(rho(k))."""
    if len(pi) != len(rho):
        raise ValueError("composition needs equal sizes")
    return tuple(pi[rho[k] - 1] for k in range(len(pi)))


def invert(pi: Permutation) -> Permutation:
    out = [0] * len(pi)
    for k, v in enumerate(pi, 1):
        out[v - 1] = k
    return tuple(out)


def transposition(n: int, j: int) -> Permutation:
    """The adjacent transposition (j, j+1) in S_n, 1 <= j <= n - 1."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"adjacent transposition index {j} out of range for S_{n}")
    out = list(range(1, n + 1))
    out[j - 1], out[j] = out[j], out[j - 1]
    return tuple(out)


def concat(perms) -> Permutation:
    """Block sum: each factor acts on its own consecutive block of letters.

    >>> concat([(2, 1), (1, 3, 2)])
    (2, 1, 3, 5, 4)
    """
    out = []
    offset = 0
    for pi in perms:
        out.extend(v + offset for v in pi)
        offset += len(pi)
    return tuple(out)


def all_perms(n: int):
    """All of S_n in lexicographic order of one-line notation."""
    return itertools.permutations(range(1, n + 1))


class Shuffle(Frozen):
    """A (k, l)-shuffle, stored as the two complementary increasing sequences.

    ``alpha`` has length k and ``beta`` length l; together they partition
    ``{1, ..., k + l}``.  The sign is the parity of the permutation whose
    one-line word is ``alpha`` followed by ``beta``.
    """

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: tuple, beta: tuple):
        k, l = len(alpha), len(beta)
        merged = sorted(alpha + beta)
        if merged != list(range(1, k + l + 1)):
            raise ValueError("shuffle components must partition {1..k+l}")
        if list(alpha) != sorted(alpha) or list(beta) != sorted(beta):
            raise ValueError("shuffle components must be increasing")
        init = object.__setattr__
        init(self, "alpha", alpha)
        init(self, "beta", beta)

    @property
    def k(self) -> int:
        return len(self.alpha)

    @property
    def l(self) -> int:
        return len(self.beta)

    def degree(self) -> int:
        return inversions(self.alpha + self.beta)

    def sign(self) -> int:
        return -1 if self.degree() % 2 else 1

    def as_perm(self) -> Permutation:
        """The permutation sending position alpha_j to j and beta_j to k + j."""
        out = [0] * (self.k + self.l)
        for j, a in enumerate(self.alpha, 1):
            out[a - 1] = j
        for j, b in enumerate(self.beta, 1):
            out[b - 1] = self.k + j
        return tuple(out)


def all_shuffles(k: int, l: int):
    """All (k, l)-shuffles."""
    full = range(1, k + l + 1)
    for alpha in itertools.combinations(full, k):
        beta = tuple(v for v in full if v not in alpha)
        yield Shuffle(alpha, beta)


def psi(sh: Shuffle, sigma: Permutation, tau: Permutation) -> Permutation:
    """Assemble a permutation of S_{k+l} from a (k, l)-shuffle and S_k x S_l.

    The result sends alpha_j to sigma_j and beta_j to k + tau_j; it equals
    ``concat([sigma, tau]) o sh.as_perm()``.

    >>> psi(Shuffle((2, 5), (1, 3, 4)), (2, 1), (1, 3, 2))
    (3, 2, 5, 4, 1)
    """
    if len(sigma) != sh.k or len(tau) != sh.l:
        raise ValueError("component sizes must match the shuffle")
    return compose(concat([sigma, tau]), sh.as_perm())


def psi_inv(pi: Permutation, k: int):
    """Inverse of :func:`psi`: split pi in S_n along the value threshold k.

    Returns ``(Shuffle, sigma, tau)`` with ``psi`` of them equal to pi.

    >>> psi_inv((3, 2, 5, 4, 1), 2)
    (Shuffle(alpha=(2, 5), beta=(1, 3, 4)), (2, 1), (1, 3, 2))
    """
    n = len(pi)
    if not 0 <= k <= n:
        raise ValueError("threshold out of range")
    alpha = tuple(j for j in range(1, n + 1) if pi[j - 1] <= k)
    beta = tuple(j for j in range(1, n + 1) if pi[j - 1] > k)
    sigma = tuple(pi[a - 1] for a in alpha)
    tau = tuple(pi[b - 1] - k for b in beta)
    return Shuffle(alpha, beta), sigma, tau


def remove_assignment(pi: Permutation, i: int) -> Permutation:
    """Delete the assignment i -> pi(i) and renumber both axes.

    >>> remove_assignment((5, 3, 1, 4, 2), 5)
    (4, 2, 1, 3)
    """
    n = len(pi)
    if not 1 <= i <= n:
        raise ValueError("position out of range")
    val = pi[i - 1]
    return tuple(v if v < val else v - 1 for j, v in enumerate(pi, 1) if j != i)


def add_assignment(pi: Permutation, i: int, val: int) -> Permutation:
    """Insert the assignment i -> val, shifting larger values and positions.

    Inverse of :func:`remove_assignment` at position i with recorded value.
    """
    n = len(pi)
    if not (1 <= i <= n + 1 and 1 <= val <= n + 1):
        raise ValueError("insertion out of range")
    shifted = [v if v < val else v + 1 for v in pi]
    return tuple(shifted[: i - 1]) + (val,) + tuple(shifted[i - 1:])


def all_index_seqs(n: int):
    """All index sequences of length n, lexicographically."""
    return itertools.product(*(range(n - k + 1) for k in range(1, n + 1)))


def is_index_seq(iseq) -> bool:
    n = len(iseq)
    return all(0 <= iseq[k - 1] <= n - k for k in range(1, n + 1))


def p(iseq: IndexSeq) -> Permutation:
    """Bijection from index sequences of length n onto S_n.

    >>> p((0, 0, 0))
    (1, 2, 3)
    >>> p((2, 1, 0))
    (3, 2, 1)
    >>> p((4, 2, 0, 1, 0))
    (5, 3, 1, 4, 2)
    """
    if not is_index_seq(iseq):
        raise ValueError(f"not an index sequence: {iseq}")
    pi: Permutation = ()
    for i1 in reversed(iseq):
        pi = add_assignment(pi, 1, i1 + 1)
    return pi


def p_inv(pi: Permutation) -> IndexSeq:
    """Inverse of :func:`p`: i_k = pi(k) - #{j <= k : pi(j) <= pi(k)}."""
    if not is_permutation(pi):
        raise ValueError(f"not a permutation: {pi}")
    n = len(pi)
    return tuple(
        pi[k - 1] - sum(1 for j in range(1, k + 1) if pi[j - 1] <= pi[k - 1])
        for k in range(1, n + 1)
    )


def xi(iseq: IndexSeq):
    """Split an index sequence of length n >= 1 into a shuffle and two shorter ones.

    Returns ``(sh, jseq, kseq)`` where sh is a (k', l')-shuffle with
    ``k' + l' = n - 1``, ``jseq`` is an index sequence of length k' and
    ``kseq`` one of length l'.  This is a bijection onto such triples.

    >>> xi((0, 0))
    (Shuffle(alpha=(1,), beta=()), (0,), ())
    >>> xi((1, 0))
    (Shuffle(alpha=(), beta=(1,)), (), (0,))
    """
    n = len(iseq)
    if n == 0 or not is_index_seq(iseq):
        raise ValueError(f"need a nonempty index sequence, got {iseq}")
    if n == 1:
        return Shuffle((), ()), (), ()
    sh, jseq, kseq = xi(iseq[1:])
    kp = len(jseq)
    i1 = iseq[0]
    if i1 <= kp:
        alpha = (1,) + tuple(a + 1 for a in sh.alpha)
        beta = tuple(b + 1 for b in sh.beta)
        return Shuffle(alpha, beta), (i1,) + jseq, kseq
    alpha = tuple(a + 1 for a in sh.alpha)
    beta = (1,) + tuple(b + 1 for b in sh.beta)
    return Shuffle(alpha, beta), jseq, (i1 - kp - 1,) + kseq


def phi(iseq: IndexSeq, pos: int):
    """Face operation on index sequences.

    For an index sequence of length n >= 1 and 0 <= pos <= n, returns
    ``(jseq, q)`` with jseq of length n - 1 and 0 <= q <= n - 1.
    """
    n = len(iseq)
    if n == 0 or not is_index_seq(iseq):
        raise ValueError(f"need a nonempty index sequence, got {iseq}")
    if not 0 <= pos <= n:
        raise ValueError("face position out of range")
    i1 = iseq[0]
    if pos in (i1, i1 + 1):
        return iseq[1:], 0
    if pos < i1:
        jseq, q = phi(iseq[1:], pos)
        return (i1 - 1,) + jseq, q + 1
    jseq, q = phi(iseq[1:], pos - 1)
    return (i1,) + jseq, q + 1


def phi_perm(pi: Permutation, pos: int):
    """The permutation-level counterpart of :func:`phi`.

    For pi in S_n and 0 <= pos <= n, returns ``(pi~, q)`` where pi~ in
    S_{n-1} is pi with one assignment removed and q is the removed slot
    minus one.
    """
    n = len(pi)
    if n == 0 or not is_permutation(pi):
        raise ValueError(f"need a nonempty permutation, got {pi}")
    if not 0 <= pos <= n:
        raise ValueError("face position out of range")
    inv = invert(pi)
    if pos == 0:
        slot = inv[0]
    elif pos == n:
        slot = inv[n - 1]
    else:
        slot = min(inv[pos - 1], inv[pos])
    return remove_assignment(pi, slot), slot - 1


def sz_shuffle_split(pi: Permutation):
    """Split pi in S_n (n >= 1) by its last value into a shuffle and two factors.

    Returns ``(sh, sigma, tau)`` with sh a (k, l)-shuffle for k = pi(n) - 1,
    l = n - pi(n).

    >>> sz_shuffle_split((5, 3, 1, 4, 2))
    (Shuffle(alpha=(3,), beta=(1, 2, 4)), (1,), (3, 1, 2))
    """
    n = len(pi)
    if n == 0 or not is_permutation(pi):
        raise ValueError(f"need a nonempty permutation, got {pi}")
    k = pi[n - 1] - 1
    return psi_inv(remove_assignment(pi, n), k)
