"""Norton/Parker MeatAxe over GF(2) that knows the class of every factor.

Modules are row-vector spaces: vectors act on the right by BitMatrix
generators.  chop() returns the composition factors; the irreducibility
certificate is Norton's test applied to an irreducible factor p of a local
minimal polynomial whose kernel has dimension deg(p).  The factors come
from `gf2.poly_primes`, which finds them with no random step.  For each
factor p one kernel vector is spun (Holt-Rees): when dim ker p(theta) =
deg p the kernel is a simple k[theta]-module, so any proper submodule
meeting it contains it and one vector decides; a larger kernel gets one
opportunistic spin before the next factor or theta.  A submodule is the
`Echelon` that `spin` builds; a spin stops as soon as its span is the
whole module, and keeps no coordinates.  A submodule's action is written
in the echelon's reduced rows (`gf2.restrict`), the quotient's in the
non-pivot coordinates.

A simple module S keeps its certificate (Holt-Rees): the word theta in the
generators, the factor p and a vector v of ker p(theta_S), with the
standard basis that spins v to S.  A homomorphism S -> X sends v into
ker p(theta_X) and is fixed by that image, so one linear solve on
ker p(theta_X) gives Hom(S, X), and the sum of the images is a submodule
S + ... + S of X (`_embedded_copies`); on X = S it gives e = dim End(S).
chop() tests each module against every simple it knows before it draws
any theta, splits those copies off and goes on with the quotient alone;
the random search only runs on a module that no known simple embeds in,
so a simple it certifies is a new class.  Each class is one `Constituent`
object, and `group_constituents` only counts.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property, reduce
from itertools import groupby
from operator import mul

from .errors import InvariantViolation
from .gf2 import (BitMatrix, Echelon, eval_poly, krylov_relation, poly_lcm,
                  poly_primes, restrict)

MAX_THETA_TRIES = 60
FACTOR_DEGREE_CAP = 80


def spin(vectors, mats, dim) -> Echelon:
    """Smallest module-closed subspace containing the vectors, in a module
    of dimension dim: the spin stops as soon as the span is the module."""
    ech = Echelon()
    queue = [v for v in vectors if ech.add(v)]
    while queue:
        v = queue.pop()
        for m in mats:
            if len(ech) == dim:
                return ech
            w = m.mul_vec(v)
            if ech.add(w):
                queue.append(w)
    return ech


def sub_quotient(mats, dim, ech: Echelon):
    """(sub_mats, quot_mats) for a proper submodule."""
    sub = ech.reduced_basis(dim)
    sub_mats = [restrict(sub, map(m.mul_vec, sub.vectors)) for m in mats]
    return sub_mats, quotient(mats, dim, ech)


def quotient(mats, dim, ech: Echelon) -> list:
    """The action on the quotient by a submodule, in the non-pivot coordinates.

    A reduced vector has no pivot bit set, so its projection closes up the
    gaps between the free columns: one shift and mask per run of
    consecutive free columns, of which a quotient has only a few."""
    free = [c for c in range(dim) if not (ech.pivots >> c) & 1]
    runs = []  # (first column, mask, first free coordinate) of each run
    for _gap, run in groupby(enumerate(free), lambda nc: nc[1] - nc[0]):
        (n, c), *rest = run
        runs.append((c, (1 << (len(rest) + 1)) - 1, n))

    def project(v):
        v, out = ech.reduce(v), 0
        for c, mask, n in runs:
            out |= (v >> c & mask) << n
        return out

    return [BitMatrix([project(m.rows[c]) for c in free], len(free)) for m in mats]


def _matrix_minpoly(A: BitMatrix, rng) -> int:
    """Minimal polynomial of A on a few Krylov subspaces (monic, as bits)."""
    n = A.nrows
    m = 1  # poly "1"
    for _ in range(3):
        local = krylov_relation(rng.getrandbits(n) or 1, A.mul_vec, n)
        m = poly_lcm(m, local)
        if local.bit_length() - 1 == n:
            break
    return m


def _random_word(ngens, rng) -> tuple:
    """A random algebra element: 2 or 3 products of 1 or 2 generators, by
    index, plus the identity (the empty product) half the time."""
    terms = []
    for _ in range(rng.randrange(2, 4)):
        first = rng.randrange(ngens)
        terms.append((first, *(rng.randrange(ngens) for _ in range(rng.randrange(0, 2)))))
    if rng.randrange(2):
        terms.append(())
    return tuple(terms)


def _evaluate(word, mats) -> BitMatrix:
    """The matrix of a word of `_random_word` on the module with generators mats."""
    n = mats[0].nrows
    acc = BitMatrix.zero(n, n)
    for term in word:
        acc = acc + (reduce(mul, (mats[i] for i in term)) if term else BitMatrix.identity(n))
    return acc


class Constituent:
    """One isomorphism class of composition factors: the action matrices of
    its first copy, and the certificate that finds it again.

    The certificate is a word theta in the generators, an irreducible p and
    a vector v != 0 with v p(theta) = 0.  v spins to the standard basis
    b_0 = v, b_k = b_i g_j for (i, j) = steps[k - 1], and actions[j] is g_j
    written in that basis."""

    def __init__(self, mats, word, poly, v):
        self.mats = mats
        self.dim = mats[0].nrows
        self.word = word
        self.poly = poly
        ech = Echelon([v], self.dim)
        self.steps = []
        i = 0
        while i < len(ech) < self.dim:
            for j, m in enumerate(mats):
                if ech.add(m.mul_vec(ech.vectors[i])):
                    self.steps.append((i, j))
                    if len(ech) == self.dim:
                        break
            i += 1
        if len(ech) != self.dim:
            raise InvariantViolation("a certified simple module is not spun by its vector")
        self.actions = [restrict(ech, map(m.mul_vec, ech.vectors)) for m in mats]

    @cached_property
    def end_dim(self) -> int:
        """e = dim End(S), by the Hom solve of S on itself (`_homs`).  End(S)
        is the field GF(2^e), and over the algebraic closure S is e
        Galois-conjugate absolutely irreducible modules of dim S / e."""
        return len(_homs(self, self.mats, self.dim)[1])


def _scalar_constituent(mats) -> Constituent:
    """A 1-dimensional module, certified by its own scalars: theta = g_0 and
    p = x + s_0.  Generators of an algebra can act as 0, so it need not be
    the trivial module."""
    return Constituent(mats, ((0,),), 0b10 | mats[0].rows[0], 1)


def _homs(S: Constituent, mats, dim) -> tuple:
    """(ker, homs): a basis ker of ker p(theta_X) on the module X = (mats,
    dim), and a basis of Hom(S, X) as coordinates over ker of the image of
    S's vector v.

    A homomorphism sends v to some w in ker p(theta_X), and sends the
    standard basis b_k to the vectors w spins to along S's steps.  Those
    images define a homomorphism iff they satisfy S's relations b_i g_j =
    sum_k actions[j][i, k] b_k, which is linear in w: one solve over a
    basis of ker p(theta_X) gives all of Hom(S, X)."""
    ker = eval_poly(_evaluate(S.word, mats), S.poly).kernel()
    if not ker:
        return ker, []
    created = set(S.steps)
    residuals = []
    for u in ker:
        images = [u]
        for i, j in S.steps:
            images.append(mats[j].mul_vec(images[i]))
        E = BitMatrix(images, dim)
        res, width = 0, 0
        for j, (m, A) in enumerate(zip(mats, S.actions)):
            for i in range(S.dim):
                if (i, j) not in created:
                    res |= (m.mul_vec(images[i]) ^ E.mul_vec(A.rows[i])) << width
                    width += dim
        residuals.append(res)
    return ker, BitMatrix(residuals, width).kernel()


def _embedded_copies(S: Constituent, mats, dim):
    """The sum of the images of all homomorphisms from S to the module X =
    (mats, dim), an `Echelon` of dim r*dim(S); None when Hom(S, X) = 0."""
    if S.dim > dim:
        return None
    ker, homs = _homs(S, mats, dim)
    if not homs:
        return None
    copies = spin(map(BitMatrix(ker, dim).mul_vec, homs), mats, dim)
    if len(copies) % S.dim:
        raise InvariantViolation("the images of a simple module are not a sum of copies")
    return copies


def chop(mats, dim, seed=0, known=None) -> list:
    """Composition factors of the module (dim, mats), with repetition: one
    `Constituent` object per isomorphism class, listed once per copy.

    `known` holds the classes found in earlier modules with the same
    generators, and the new ones are appended to it."""
    if dim == 0:
        return []
    if not mats:
        raise InvariantViolation("modules need at least one action matrix")
    rng = random.Random(seed)
    out = []
    _chop_rec(list(mats), dim, rng, [] if known is None else known, out)
    if sum(c.dim for c in out) != dim:
        raise InvariantViolation("composition factor dimensions do not add up")
    return out


def _chop_rec(mats, dim, rng, known, out):
    mats, dim = _peel(mats, dim, known, out)
    if dim:
        _split_rec(mats, dim, rng, known, out)


def _split_rec(mats, dim, rng, known, out):
    """Chop a module in which no simple of `known` embeds.  A split adds
    nothing to `known`, and Hom(S, W) lies in Hom(S, X) = 0 for a submodule
    W of X, so W starts here, past the peel that could find nothing."""
    # theta, p(theta) and their kernels live in the search's frame, so they
    # are freed before the recursion
    found = _proper_submodule(mats, dim, rng) if dim > 1 else _scalar_constituent(mats)
    if isinstance(found, Constituent):
        known.append(found)
        out.append(found)
        return
    k = len(found)
    sub_mats, quot_mats = sub_quotient(mats, dim, found)
    del found, mats
    _split_rec(sub_mats, k, rng, known, out)
    del sub_mats
    _chop_rec(quot_mats, dim - k, rng, known, out)


def _peel(mats, dim, known, out):
    """(mats, dim) of the quotient by every copy of a known simple at the
    bottom of the module, those copies recorded in out.  A quotient can
    hold any known simple again, so each split restarts the tests."""
    n = 0
    while n < len(known) and dim:
        S = known[n]
        copies = _embedded_copies(S, mats, dim)
        if copies is None:
            n += 1
            continue
        out += [S] * (len(copies) // S.dim)
        mats = quotient(mats, dim, copies)
        dim -= len(copies)
        n = 0
    return mats, dim


def _proper_submodule(mats, dim, rng):
    """A proper submodule (an `Echelon`), or the module's `Constituent` when
    Norton's test certifies it irreducible.

    Zero and repeated generators are dropped first: they change no
    submodule, but a subquotient can carry dozens of them, and words drawn
    among them would seldom reach the one generator that splits.  The
    certifying word is written back in the indices of all of mats."""
    keep = list({tuple(m.rows): i for i, m in enumerate(mats) if any(m.rows)}.values()) or [0]
    gens = [mats[i] for i in keep]
    for _try in range(MAX_THETA_TRIES):
        word = _random_word(len(gens), rng)
        theta = _evaluate(word, gens)
        mp = _matrix_minpoly(theta, rng)
        for p in poly_primes(mp):  # ascending, so by degree
            degp = p.bit_length() - 1
            if degp > FACTOR_DEGREE_CAP:
                continue
            P = eval_poly(theta, p)
            ker = P.kernel()
            if not ker:
                continue
            s = spin([ker[0]], gens, dim)
            if len(s) < dim:
                return s
            if len(ker) == degp:
                # ker is a simple k[theta]-module, so the spin of ker[0]
                # was conclusive; Norton: dual side with the same p
                Pt = P.transpose()
                kert = Pt.kernel()
                tmats = [m.transpose() for m in gens]
                st = spin([kert[0]], tmats, dim)
                if len(st) < dim:
                    perp = BitMatrix(st.vectors, dim).transpose().kernel()
                    sperp = spin(perp, gens, dim)
                    if not 0 < len(sperp) < dim:
                        raise InvariantViolation("Norton's dual split is not proper")
                    return sperp
                return _certified(mats, keep, rng, word, p, ker[0])
            # a larger kernel leaves ker[0]'s spin inconclusive; go on
    raise InvariantViolation(
        f"meataxe found no split or certificate in {MAX_THETA_TRIES} tries")


def _certified(mats, keep, rng, word, p, v) -> Constituent:
    """The `Constituent` of a module Norton's test certified irreducible,
    with its words written in the indices of all of mats.

    Any v != 0 with v q(theta) = 0 is a certificate for `_embedded_copies`,
    whose solve has dim ker q(theta_X) unknowns on a module X: the fewer
    on S, the fewer on X.  So words are drawn until theta or theta + 1 has
    a kernel of dim 1 on S; failing that, Norton's own word and p serve.
    The nullity is read off the rank, and a kernel built only for a new
    best."""
    gens, n = [mats[i] for i in keep], mats[0].nrows
    best = (p.bit_length() - 1, word, p, v)  # Norton's kernel has dim deg p
    for _try in range(MAX_THETA_TRIES):
        if best[0] == 1:
            break
        draw = _random_word(len(gens), rng)
        theta = _evaluate(draw, gens)
        for c in (0, 1):
            M = theta + BitMatrix.identity(n) if c else theta
            nullity = n - M.rank()
            if 0 < nullity < best[0]:
                best = (nullity, draw, 0b10 | c, M.kernel()[0])
    _nullity, word, p, v = best
    return Constituent(mats, tuple(tuple(keep[i] for i in term) for term in word), p, v)


def group_constituents(constituents):
    """[(class, multiplicity)] of a factor list from `chop`, which gives one
    object per isomorphism class, in order of (dim, multiplicity)."""
    return sorted(Counter(constituents).items(), key=lambda e: (e[0].dim, e[1]))
