"""Norton/Parker MeatAxe over GF(2) plus standard-basis isomorphism testing.

Modules are row-vector spaces: vectors act on the right by BitMatrix
generators.  chop() returns the composition factors; the irreducibility
certificate is Norton's test applied to an irreducible factor p of a local
minimal polynomial whose kernel has dimension deg(p).  The factors come
from `gf2.poly_primes`, which finds them with no random step.  For each
factor p one kernel vector is spun (Holt-Rees): when dim ker p(theta) =
deg p the kernel is a simple k[theta]-module, so any proper submodule
meeting it contains it and one vector decides; a larger kernel gets one
opportunistic spin before the next factor or theta.  A submodule is the
`Echelon` that `spin` builds; its action is written in the echelon's
reduced rows (`gf2.restrict`), the quotient's in the non-pivot
coordinates.
"""

from __future__ import annotations

import random

from .errors import InvariantViolation
from .gf2 import (BitMatrix, Echelon, eval_poly, krylov_relation, poly_lcm,
                  poly_primes, restrict)

MAX_THETA_TRIES = 60
FACTOR_DEGREE_CAP = 80


def spin(vectors, mats) -> Echelon:
    """Smallest module-closed subspace containing the vectors."""
    ech = Echelon()
    queue = []
    for v in vectors:
        if ech.add(v):
            queue.append(v)
    while queue:
        v = queue.pop()
        for m in mats:
            w = m.mul_vec(v)
            if ech.add(w):
                queue.append(w)
    return ech


def sub_quotient(mats, dim, ech: Echelon):
    """(sub_mats, quot_mats) for a proper submodule."""
    sub = ech.reduced_basis()
    sub_mats = [restrict(sub, map(m.mul_vec, sub.vectors)) for m in mats]
    # complement coordinates: non-pivot positions
    free = [c for c in range(dim) if not (ech.pivots >> c) & 1]
    pos = {c: n for n, c in enumerate(free)}

    def project(v):
        v = ech.reduce(v)
        out = 0
        for c in free:
            if (v >> c) & 1:
                out |= 1 << pos[c]
        return out

    quot = []
    for m in mats:
        rows = [project(m.mul_vec(1 << c)) for c in free]
        quot.append(BitMatrix(rows, len(free)))
    return sub_mats, quot


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


def _random_algebra_element(mats, rng) -> BitMatrix:
    n = mats[0].nrows
    acc = BitMatrix.zero(n, n)
    for _ in range(rng.randrange(2, 4)):
        w = mats[rng.randrange(len(mats))]
        for _ in range(rng.randrange(0, 2)):
            w = w * mats[rng.randrange(len(mats))]
        acc = acc + w
    if rng.randrange(2):
        acc = acc + BitMatrix.identity(n)
    return acc


class Constituent:
    """One irreducible composition factor: dim + action matrices."""

    def __init__(self, mats):
        self.mats = mats
        self.dim = mats[0].nrows if mats else 0

    def fingerprint(self) -> tuple:
        n = self.dim
        ident = BitMatrix.identity(n)
        ranks = [(m + ident).rank() for m in self.mats]
        extra = []
        if len(self.mats) >= 2:
            w = self.mats[0] * self.mats[1]
            extra.append((w + ident).rank())
            extra.append((w * self.mats[0] + ident).rank())
        return (n, tuple(ranks), tuple(extra))


def chop(mats, dim, seed=0) -> list:
    """Composition factors (with repetition) of the module (dim, mats)."""
    if dim == 0:
        return []
    if not mats:
        raise InvariantViolation("modules need at least one action matrix")
    rng = random.Random(seed)
    out = []
    _chop_rec([m.copy() for m in mats], dim, rng, out)
    if sum(c.dim for c in out) != dim:
        raise InvariantViolation("composition factor dimensions do not add up")
    return out


def _chop_rec(mats, dim, rng, out):
    if dim == 0:
        return
    # theta, p(theta) and their kernels live in the search's frame, so they
    # are freed before the recursion
    sub = _proper_submodule(mats, dim, rng) if dim > 1 else None
    if sub is None:
        out.append(Constituent(mats))
        return
    k = len(sub)
    sub_mats, quot_mats = sub_quotient(mats, dim, sub)
    del sub
    _chop_rec(sub_mats, k, rng, out)
    del sub_mats
    _chop_rec(quot_mats, dim - k, rng, out)


def _proper_submodule(mats, dim, rng):
    """A proper submodule (an `Echelon`), or None when Norton's test
    certifies the module irreducible.

    Zero and repeated generators are dropped first: they change no
    submodule, but a subquotient can carry dozens of them, and words drawn
    among them would seldom reach the one generator that splits."""
    mats = list({tuple(m.rows): m for m in mats if any(m.rows)}.values()) or mats[:1]
    for _try in range(MAX_THETA_TRIES):
        theta = _random_algebra_element(mats, rng)
        mp = _matrix_minpoly(theta, rng)
        for p in poly_primes(mp):  # ascending, so by degree
            degp = p.bit_length() - 1
            if degp > FACTOR_DEGREE_CAP:
                continue
            P = eval_poly(theta, p)
            ker = P.kernel()
            if not ker:
                continue
            s = spin([ker[0]], mats)
            if len(s) < dim:
                return s
            if len(ker) == degp:
                # ker is a simple k[theta]-module, so the spin of ker[0]
                # was conclusive; Norton: dual side with the same p
                Pt = P.transpose()
                kert = Pt.kernel()
                tmats = [m.transpose() for m in mats]
                st = spin([kert[0]], tmats)
                if len(st) < dim:
                    perp = BitMatrix(st.vectors, dim).transpose().kernel()
                    sperp = spin(perp, mats)
                    if not 0 < len(sperp) < dim:
                        raise InvariantViolation("Norton's dual split is not proper")
                    return sperp
                return None
            # a larger kernel leaves ker[0]'s spin inconclusive; go on
    raise InvariantViolation(
        f"meataxe found no split or certificate in {MAX_THETA_TRIES} tries")


# ---------------------------------------------------------------------------
# isomorphism testing via standard bases
# ---------------------------------------------------------------------------

def _standard_rep(mats, w):
    """Spin w with a fixed schedule; return the dependency shape and the
    per-generator matrices in the canonical spin basis."""
    ech = Echelon([w])
    shape = []
    i = 0
    while i < len(ech):
        for gi, m in enumerate(mats):
            shape.append((i, gi, ech.add(m.mul_vec(ech.vectors[i]))))
        i += 1
    reps = [restrict(ech, map(m.mul_vec, ech.vectors)) for m in mats]
    return tuple(shape), reps, len(ech)


def isomorphic_irreducibles(c1: Constituent, c2: Constituent, seed=0) -> bool:
    """Exact isomorphism test for two irreducible modules."""
    if c1.dim != c2.dim or len(c1.mats) != len(c2.mats):
        return False
    if c1.dim == 0:
        return True
    if c1.fingerprint() != c2.fingerprint():
        return False
    rng = random.Random(seed)
    for _try in range(MAX_THETA_TRIES):
        # same word evaluated in both modules
        state = rng.getstate()
        A1 = _random_algebra_element(c1.mats, rng)
        rng.setstate(state)
        A2 = _random_algebra_element(c2.mats, rng)
        k1 = A1.kernel()
        k2 = A2.kernel()
        if len(k1) != len(k2):
            return False
        if not k1 or len(k1) > 8:
            continue
        shape1, reps1, n1 = _standard_rep(c1.mats, k1[0])
        if n1 != c1.dim:
            continue  # not actually irreducible-spanning from this vector
        # try every nonzero kernel vector on the other side
        for mask in range(1, 1 << len(k2)):
            w2 = 0
            for t in range(len(k2)):
                if (mask >> t) & 1:
                    w2 ^= k2[t]
            shape2, reps2, n2 = _standard_rep(c2.mats, w2)
            if n2 == c2.dim and shape1 == shape2 and reps1 == reps2:
                return True
        return False
    raise InvariantViolation(
        f"isomorphism test inconclusive after {MAX_THETA_TRIES} tries")


def group_constituents(constituents, seed=0):
    """Group a factor list into iso-classes: [(representative, multiplicity)]."""
    classes = []
    for c in constituents:
        for entry in classes:
            if isomorphic_irreducibles(entry[0], c, seed=seed):
                entry[1] += 1
                break
        else:
            classes.append([c, 1])
    classes.sort(key=lambda e: e[0].dim)
    return [(c, m) for c, m in classes]
