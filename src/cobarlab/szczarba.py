"""Loop-group operators on simplices, their executable contract, and the
induced map from the triangulated cobar construction to the loop group.

A provider assigns to each permutation pi of S_n and each (n+1)-simplex x a
group word of dimension n, the product of n + 1 factors.  The shipped
provider builds them for every n from one recursive rule, in Szczarba's
shape (:func:`factor_maps`), and the contract checker certifies them: the
seven face/degeneracy interaction families, indexed by permutations.  Their
index-sequence-indexed originals are checked at index level, in the
combinatorics suite, through the translation maps.

On top of a verified provider, ``CobarToGroupMap`` glues the per-letter
families into a simplicial map from the triangulation of the cobar cubical
set to the group, ``build_f`` checks that it respects every identification,
and ``main_theorem_check`` compares the composite of that map with the
triangulation chain map against the word-by-word twisting cochain.

The word-by-word map is a ``ChainMap`` (:func:`word_map`) from the
normalized chains of the cobar cubical set, whose normalized cubes
``(w, ())`` are the words w, into the normalized chains of the group,
read on demand; ``check_chain_map`` and ``check_coalgebra_map`` check on
that one map that it commutes with d and with the diagonal.

Each provider keeps what it has computed: the operator word ``sz(pi, x)``
keyed by ``(pi, x)``, and the cochains ``t_sz`` per simplex and ``f_sz``
per word, the latter as the product of its longest proper prefix's value
with the last letter's.  The stores belong to the provider and are freed
with it; callers only read the shared words and chains.  The loop group
keeps its letters' faces and degeneracies the same way, the glued map
keeps each letter's value on each piece under a key of a name and ints,
and ``check_f_simplicial`` keeps the value of each canonical simplex for
the length of one call.
"""

from __future__ import annotations

import functools

from .chains import Chain, ChainMap, add_scaled
from .cobar import CobarSet
from .cubes import CubeMorphism, cubical_chains
from .loopgroup import GroupWord, LoopGroup
from .perms import (all_perms, compose, phi_perm, remove_assignment, sign,
                    sz_shuffle_split, transposition)
from .simpcube import (PartitionSimplex, _drop_bracket, _fold_bracket,
                       combine_simplices, extend_family, lambda_star,
                       partition_degeneracy, u_pi)
from .simplicial import (NormalizedChains, Simplex, monotone_operators,
                         shuffle_pair, shuffle_terms)
from .verdict import Verdict


def multi_degeneracy(group, a, indices):
    """Iterated degeneracies at the given indices, applied in ascending
    order (the shuffle-map convention)."""
    for i in sorted(indices):
        a = group.degeneracy(a, i)
    return a


def factor_maps(pi: tuple) -> list:
    """Monotone maps theta_0, ..., theta_n of [n + 1], one per factor of the
    word for pi in S_n: factor k of Sz_pi(x) is tau(theta_k^* x).

    Factor 0 is tau(theta_pi^* x), where theta_pi = (0, a_1, ..., a_n, n + 1)
    with a_j = 1 + #{m < j : pi(m) < min(pi(j), ..., pi(n))}, so Sz_()(x) =
    tau(x).  For n >= 1 the other n factors are s_q of the factors of
    Sz_pi~(d_0 x), (pi~, q) = phi_perm(pi, 0); and s_q tau = tau s_{q+1}.
    """
    n = len(pi)
    theta = (0, *(1 + sum(pi[m] < min(pi[j:]) for m in range(j))
                  for j in range(n)), n + 1)
    if n == 0:
        return [theta]
    tpi, q = phi_perm(pi, 0)
    # x -> s_{q+1} theta'^* d_0 x reads vertex theta'(j or j - 1) + 1
    return [theta] + [tuple(t[j - (j > q + 1)] + 1 for j in range(n + 2))
                      for t in factor_maps(tpi)]


@functools.cache
def word_operators(pi: tuple) -> tuple:
    """The operators of each theta_k^*, built once per permutation."""
    return tuple(monotone_operators(t, len(pi) + 1) for t in factor_maps(pi))


class SzProvider:
    """The loop-group operators, for every n.

    ``factors(pi, x)`` takes a permutation of S_n and a simplex of dimension
    n + 1 and returns the n + 1 factors of the operator word, leftmost
    first; ``sz(pi, x)`` is their product, a group word of dimension n.

    ``sz`` keeps each word it builds, keyed by ``(pi, x)``, and ``t_sz``
    and ``f_sz`` store their chains here, by simplex and by word; all three
    stores live as long as the provider.  A subclass that overrides
    ``factors`` fills the store from its own factors.
    """

    def __init__(self, group: LoopGroup):
        self.group = group
        self.sset = group.sset
        self._words = {}
        self._t_chains = {}
        self._f_chains = {}

    def factors(self, pi: tuple, x: Simplex) -> list:
        if x.dim != len(pi) + 1:
            raise ValueError("simplex dimension must be the permutation size"
                             " plus one")
        face, degeneracy = self.sset.face, self.sset.degeneracy
        return [self.group.tau(functools.reduce(
                    degeneracy, degens, functools.reduce(face, faces, x)))
                for faces, degens in word_operators(pi)]

    def sz(self, pi: tuple, x: Simplex) -> GroupWord:
        key = (pi, x)
        word = self._words.get(key)
        if word is None:
            word = self._words[key] = self.group.product(
                len(pi), self.factors(pi, x))
        return word


class SwappedSzProvider(SzProvider):
    """Negative control: the two leading factors of the word for ``pi``
    (by default the transposition in S_2) are interchanged."""

    def __init__(self, group: LoopGroup, pi: tuple = (2, 1)):
        if not pi:
            raise ValueError("the word for S_0 has a single factor")
        super().__init__(group)
        self.pi = pi

    def factors(self, pi, x):
        out = super().factors(pi, x)
        if pi == self.pi:
            out[0], out[1] = out[1], out[0]
        return out


# ----- the executable contract ------------------------------------------------------


def contract_check(provider, n_max: int) -> Verdict:
    """Face and degeneracy interaction identities for the provider, checked
    exhaustively over all simplices (degenerate ones included), permutations
    and applicable indices with n <= n_max.

    The identities are indexed by permutations, as the glued map reads them
    on the top simplices u_pi.  Szczarba's originals are indexed by index
    sequences; the bijection ``p`` carries each of them to one of these, and
    the combinatorics suite checks that translation at index level."""
    group, sset = provider.group, provider.sset

    for n in range(1, n_max + 1):
        for x in sset.simplices(n + 1):
            for tpi in all_perms(n):
                val = provider.sz(tpi, x)
                # (d-i): the bottom face removes the assignment 1 -> i
                pi = remove_assignment(tpi, 1)
                if group.face(val, 0) != provider.sz(pi, sset.face(x, tpi[0])):
                    return Verdict.failed(
                        {"identity": "d-i", "x": x, "pi": tpi})
                # (d-iii): the top face splits along the last assignment
                i = tpi[-1]
                sh, sigma, tau_ = sz_shuffle_split(tpi)
                want = group.mul(*shuffle_pair(
                    group, group, sh,
                    provider.sz(sigma, sset.front_face(x, i)),
                    provider.sz(tau_, sset.back_face(x, i))))
                if group.face(val, n) != want:
                    return Verdict.failed(
                        {"identity": "d-iii", "x": x, "pi": tpi,
                         "got": group.face(val, n), "want": want})
            # (d-ii): middle faces agree on adjacent transpositions
            for pi in all_perms(n):
                for j in range(1, n):
                    rho = compose(pi, transposition(n, j))
                    if (group.face(provider.sz(pi, x), j)
                            != group.face(provider.sz(rho, x), j)):
                        return Verdict.failed(
                            {"identity": "d-ii", "x": x, "pi": pi, "j": j})

    for n in range(0, n_max):
        # degeneracy identities: pi in S_{n+1} acting on s_p x, x of dim n + 1
        for x in sset.simplices(n + 1):
            for pi in all_perms(n + 1):
                for pval in range(n + 2):
                    tpi, q = phi_perm(pi, pval)
                    lhs = provider.sz(pi, sset.degeneracy(x, pval))
                    if lhs != group.degeneracy(provider.sz(tpi, x), q):
                        label = ("s-i" if pval == 0 else
                                 "s-iii" if pval == n + 1 else "s-ii")
                        return Verdict.failed(
                            {"identity": label, "x": x, "pi": pi, "p": pval})
    return Verdict.passed()


def rival_convention_diagnosis(sset) -> dict:
    """Under the rival bottom-face convention neither order of the two
    factors of the n = 1 word satisfies the contract: the plain order breaks
    the bottom-face identity, the swapped order repairs it but breaks the
    top-face splitting.  Returns the two contract verdicts."""
    group = LoopGroup(sset, twist="rival")
    return {
        "plain": contract_check(SzProvider(group), 1),
        "swapped": contract_check(SwappedSzProvider(group, (1,)), 1),
    }


# ----- the twisting cochain and the word-by-word map --------------------------------


def t_sz(provider, x: Simplex) -> Chain:
    """The degree minus-one cochain on a simplex: 0 in dimension 0, value
    minus the unit in dimension 1, the sign-weighted operator sum above.
    The chain is kept by the provider; do not mutate it."""
    out = provider._t_chains.get(x)
    if out is None:
        group = provider.group
        n = x.dim
        out = {}
        if n >= 1:
            for pi in all_perms(n - 1):
                val = provider.sz(pi, x)
                if not group.is_degenerate(val):
                    add_scaled(out, {val: 1}, sign(pi))
        if n == 1:
            add_scaled(out, {group.one(0): 1}, -1)
        provider._t_chains[x] = out
    return out


def pontryagin(group: LoopGroup, c1: Chain, c2: Chain) -> Chain:
    """Product on normalized group chains: shuffle-degenerate both factors
    and multiply componentwise."""
    out: Chain = {}
    for g, cg in c1.items():
        for h, ch in c2.items():
            for (sg, sh), c in shuffle_terms(group, group, g, h).items():
                word = group.mul(sg, sh)
                if not group.is_degenerate(word):
                    add_scaled(out, {word: 1}, c * cg * ch)
    return out


def f_sz(provider, word) -> Chain:
    """The word-by-word cochain map on the tensor-algebra model: the product
    of the per-letter cochains, f(w) = f(w[:-1]) * t(w[-1]).  The chain is
    kept by the provider; do not mutate it."""
    word = tuple(word)
    out = provider._f_chains.get(word)
    if out is None:
        group = provider.group
        out = ({group.one(0): 1} if not word else
               pontryagin(group, f_sz(provider, word[:-1]),
                          t_sz(provider, word[-1])))
        provider._f_chains[word] = out
    return out


def word_map(provider, max_deg: int) -> ChainMap:
    """The word-by-word map (w, ()) -> f_sz(w), from the normalized cubical
    chains of the cobar construction through degree max_deg, whose
    normalized cubes are the words, to the normalized chains of the group,
    read on demand (:class:`~.simplicial.NormalizedChains`): a value
    word's boundary and diagonal are computed when a check reads them.
    The cobar construction refuses a presentation that is not
    1-reduced."""
    source = cubical_chains(CobarSet(provider.sset), max_deg)
    mapping = {cube: f_sz(provider, cube[0])
               for cubes in source.basis.values() for cube in cubes}
    return ChainMap(source, NormalizedChains(provider.group), mapping)


# ----- gluing the map on the triangulated cobar construction ------------------------


class IncompatibleFamily(ValueError):
    """A letter's operator words do not glue; ``args[0]`` is the witness."""


def _fails_on_incompatible_family(check):
    """``check``, with a family that does not glue as its failed verdict."""
    @functools.wraps(check)
    def checked(*args):
        try:
            return check(*args)
        except IncompatibleFamily as exc:
            return Verdict.failed(exc.args[0])
    return checked


class CobarToGroupMap:
    """Evaluator for cubes of the cobar construction against the group.

    A letter of dimension m is evaluated through the glued family
    pi -> sz(pi, x) over the simplicial (m-1)-cube; a word splits its
    simplex into coordinate windows and multiplies; operator prefixes are
    pushed onto the simplex's bracket as projections and foldings.

    A cube is read through a reader built once for it (:meth:`pieces`):
    its letters and operator indices are checked and the letters' windows
    fixed when the reader is built, so a call only compares the bracket's
    coordinate count with the cube's, pushes the operators onto the
    bracket and reads the letters' values; :meth:`evaluator` multiplies
    them.  These two are the map's one way to read a cube.

    The map keeps its values: each letter's family is checked and glued
    once, and each piece goes through the glued evaluator once, so the
    memo is bounded by the distinct pieces asked for.  A piece is keyed by
    small values, ``(generator name, window, m)``; base letters must be
    nondegenerate generators of the provider's presentation, so the name
    and the window's length (the letter's dimension minus one) name the
    letter, and no simplex is hashed or compared on a read.  A one-letter
    cube's value is the stored piece itself, so equal values of one piece
    are one object.  One map serves every check of the glued map on the
    provider's simplicial set.
    """

    def __init__(self, provider):
        self.cset = CobarSet(provider.sset)
        self.provider = provider
        self.group = provider.group
        self._letter_eval = {}
        self._values = {}

    def _letter(self, x: Simplex):
        """The glued evaluator of the base letter x, checked and glued on
        first use; x must be a nondegenerate generator of dimension >= 2
        of the provider's presentation."""
        evaluate = self._letter_eval.get(x)
        if evaluate is None:
            sset = self.provider.sset
            if x.degens or x.dim < 2 or sset.gens.get(x.gen) != x.dim:
                raise ValueError(f"{x!r} is not a base letter over"
                                 f" {sset.name}")
            n = x.dim - 1
            family = {pi: self.provider.sz(pi, x) for pi in all_perms(n)}
            evaluate, verdict = extend_family(n, family, self.group)
            if not verdict.ok:
                raise IncompatibleFamily({**verdict.witness, "letter": x})
            self._letter_eval[x] = evaluate
        return evaluate

    def _piece(self, x: Simplex, key: tuple) -> GroupWord:
        """The value of the letter x on the piece ``key = (x.gen, window,
        m)``, which the memo lacks: computed and stored."""
        _, window, m = key
        value = self._values[key] = self._letter(x)(
            PartitionSimplex(len(window), window, m))
        return value

    def pieces(self, cube):
        """``u -> [value of each letter of cube on its piece of u]``, left
        to right, for one cube.  What does not depend on u is done once:
        the letters and the operator indices are checked, and each
        letter's window of the pushed bracket is fixed.  A call checks
        the coordinate count, pushes the operator prefix onto the bracket
        and reads the stored pieces."""
        base, ops = cube
        windows = []
        pos = 0
        for x in base:
            if x.degens:
                raise ValueError("base letters must be nondegenerate")
            windows.append((x, x.gen, pos, pos + x.dim - 1))
            pos += x.dim - 1
        n = d = pos + len(ops)
        for kind, i in ops:
            if kind == "s" and not 1 <= i <= d:
                raise ValueError("projection coordinate out of range")
            if kind == "g" and not 1 <= i < d:
                raise ValueError("connection coordinate out of range")
            d -= 1
        values, piece = self._values, self._piece

        def read(u: PartitionSimplex) -> list:
            if u.n != n:
                raise ValueError("coordinate count mismatch")
            ks, m = u.ks, u.dim
            # push the operator prefix onto the bracket, outermost first:
            # s_i drops coordinate i, g_i merges coordinates i and i + 1
            for kind, i in ops:
                ks = (_drop_bracket(ks, i) if kind == "s"
                      else _fold_bracket(ks, i))
            factors = []
            for x, gen, lo, hi in windows:
                key = (gen, ks[lo:hi], m)
                value = values.get(key)
                if value is None:
                    value = piece(x, key)
                factors.append(value)
            return factors

        return read

    def evaluator(self, cube):
        """``u -> value of cube on u`` for one cube: the product of its
        pieces, or the one stored piece of a one-letter cube."""
        read, product = self.pieces(cube), self.group.product

        def evaluate(u: PartitionSimplex) -> GroupWord:
            factors = read(u)
            return (factors[0] if len(factors) == 1
                    else product(u.dim, factors))

        return evaluate


@_fails_on_incompatible_family
def build_f(f: CobarToGroupMap, max_dim: int) -> Verdict:
    """The glued map on the triangulated cobar construction respects every
    identification: for each generator operator lam and cube z up to
    max_dim, evaluating the operator image of z on a top simplex agrees with
    evaluating z on the pushed-forward simplex.

    The top simplices and their pushforwards depend only on the dimension,
    the operator and the permutation, so they are built once per dimension
    and shared by every cube of that dimension.  Each distinct pushforward
    gets an index, and a cube keeps its right-hand values in a list by that
    index, filled when first needed and dropped with the cube: each (cube,
    pushforward) pair is evaluated once, in the order of first need.

    Both sides are read as lists of letter values, through one reader
    (:meth:`CobarToGroupMap.pieces`) per cube z and one per image of z.
    Equal lists multiply to equal words, so the two products are formed
    only when the lists differ; a failure reports the products.  The
    images are taken through the operators the set's ``_bind`` hands out,
    bound once per dimension and dropped with it, so on a ``CobarSet`` the
    faces of normalized cubes stay in the set's store.
    """
    cset = f.cset
    bind = cset._bind  # every operator index below is in range
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
        index = {}
        checks = [(op, bind(n, op),
                   [(u, index.setdefault(lambda_star(lam, u), len(index)))
                    for u in us])
                  for op, lam, us in generators]
        pushed = list(index)
        for z in cset.cubes(n):
            on_z = f.pieces(z)
            rhs_pieces = [None] * len(pushed)
            for op, image, pairs in checks:
                on_oz = f.pieces(image(z))
                for u, k in pairs:
                    lhs = on_oz(u)
                    rhs = rhs_pieces[k]
                    if rhs is None:
                        rhs = rhs_pieces[k] = on_z(pushed[k])
                    # equal pieces multiply to equal words
                    if lhs == rhs:
                        continue
                    lhs = f.group.product(u.dim, lhs)
                    rhs = f.group.product(u.dim, rhs)
                    if lhs != rhs:
                        return Verdict.failed(
                            {"op": op, "z": z, "u": u,
                             "lhs": lhs, "rhs": rhs})
    return Verdict.passed()


@_fails_on_incompatible_family
def check_f_simplicial(f: CobarToGroupMap, max_dim: int) -> Verdict:
    """The glued map commutes with faces and degeneracies on the canonical
    simplices of the triangulated cobar construction.

    Neighbouring simplices share faces and degeneracies, so the check keeps
    the value of each canonical simplex it meets and evaluates it once; the
    values are dropped when the check returns.  The triangulation's
    reductions step from a cube to its faces by reference, so equal cubes
    of canonical simplices are one object and a lookup of a value
    compares its cube by identity."""
    from .triangulate import TriangulatedCubicalSet

    tri = TriangulatedCubicalSet(f.cset, max_dim)
    group = f.group
    values = {}

    def value(ts):
        val = values.get(ts)
        if val is None:
            val = values[ts] = f.evaluator(ts.cube)(ts.simplex)
        return val

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


@_fails_on_incompatible_family
def check_f_multiplicative(f: CobarToGroupMap, max_dim: int) -> Verdict:
    """Products of cubes evaluate to products of group words on juxtaposed
    simplices.

    Each cube's evaluator is built once, and each pair of degrees lifts
    and juxtaposes its top simplices once; a pair of cubes builds only
    its product's evaluator."""
    cset, group = f.cset, f.group
    cubes = [[(z, f.evaluator(z)) for z in cset.cubes(n)]
             for n in range(max_dim + 1)]

    def lifted(n, m):
        # top simplices lifted to dimension m, so that the coordinate rows
        # of two of them can be juxtaposed
        out = []
        for pi in all_perms(n):
            u = top = u_pi(pi)
            for _ in range(m - n):
                u = partition_degeneracy(u, u.dim)
            out.append((top, u))
        return out

    for n1 in range(max_dim + 1):
        for n2 in range(max_dim + 1 - n1):
            m = max(n1, n2)
            tops = [(u1, u2, combine_simplices(lift1, lift2))
                    for u1, lift1 in lifted(n1, m)
                    for u2, lift2 in lifted(n2, m)]
            for z1, on_z1 in cubes[n1]:
                for z2, on_z2 in cubes[n2]:
                    on_prod = f.evaluator(cset.mul(z1, z2))
                    for u1, u2, u in tops:
                        lhs = on_prod(u)
                        rhs = group.mul(
                            multi_degeneracy(group, on_z1(u1), range(n1, m)),
                            multi_degeneracy(group, on_z2(u2), range(n2, m)))
                        if lhs != rhs:
                            return Verdict.failed({"z1": z1, "z2": z2, "u": u})
    return Verdict.passed()


@_fails_on_incompatible_family
def main_theorem_check(f: CobarToGroupMap, fmap: ChainMap) -> Verdict:
    """The composite of the glued map with the triangulation chain map
    equals the word-by-word map ``fmap`` on every normalized cube of its
    source."""
    group = f.group
    for d, cubes in fmap.source.basis.items():
        tops = [(u_pi(pi), sign(pi)) for pi in all_perms(d)]
        for cube in cubes:
            on_cube = f.evaluator(cube)
            lhs: Chain = {}
            for u, sgn in tops:
                val = on_cube(u)
                if not group.is_degenerate(val):
                    add_scaled(lhs, {val: 1}, sgn)
            rhs = fmap.mapping[cube]
            if lhs != rhs:
                return Verdict.failed({"cube": cube, "lhs": lhs, "rhs": rhs})
    return Verdict.passed()
