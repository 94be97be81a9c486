"""GF(2) permutation modules on involutions, block cuts, and summands.

Row-vector modules over GF(2); coordinates of a permutation module are
labelled by element indices of the underlying G-set, and each generator's
action is kept as a list of positions.  The endomorphism algebra of a
permutation module is spanned by its orbital matrices (the G-orbits on
pairs of points, computed once per module), and the whole module layer
works from them:

* Block projectors.  A class sum commutes with G, so it is constant on
  each orbital, and a central element acts as sum_O c_O A_O.  The
  coefficient c_O is the (i0, j0) entry for one representative pair of O:
  the weighted count of g with lab_i0^g = lab_j0, computed for one row i0
  per G-orbit of points.  The projector is always the GF(2) matrix of the
  Frobenius-orbit sum of e_B, which is e_B itself when e_B is rational; a
  non-rational e_B gives only the dimension of its cut (`GFModule`).
  `class_sum_matrix` stays as the independent oracle for the tests.
* Block cuts and summands are written in the projector rows that span
  them, each reduced against the rows before it (`Echelon.reduced_basis`),
  and `gf2.restrict` gives the action on that basis.  Block cuts inherit
  the spanning set e*O*e of their endomorphisms.
* Summands.  Each piece P of a split lives in its own coordinates: its
  basis in M, its action and a basis of its corner algebra End(P), both
  d x d for d = dim P.  An idempotent k of End(P) gives the pieces kP and
  (1+k)P, whose actions and corners are restricted from P's, so no n x n
  product is formed below M itself.  A corner element a commutes with G,
  so its minimal polynomial is the lcm of the local minimal polynomials
  of a few kG-generators of P: a few vector Krylov sequences per random
  draw.  A one-dimensional corner is k, hence local, which certifies the
  summand indecomposable without random draws.
* Homs between summands of one split come from End(M): every hom
  eM -> fM extends to M through e, so Hom(eM, fM) = {v -> v*a*f}, and
  v*a*f is read off the coordinates of v*a over the summand bases.
  `hom_space` (a linear solve in n1*n2 unknowns) remains the general path
  for any other pair of modules, and for End(M) of a module with no
  orbital or split origin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import xor

from .blocks import BlockData, block_idempotent_support, block_partition
from .chartab import CharacterTable
from .errors import (CapExceeded, FieldTooSmall, InvariantViolation,
                     NotIdempotent, NotInO2)
from .gf2 import (BitMatrix, Echelon, GF2Field, eval_poly, krylov_relation,
                  poly_lcm, poly_mulmod, restrict)
from .meataxe import chop, group_constituents, spin
from .perm import PermGroup, conj, identity, mul, nu

OMEGA_CAP = 2048
MEATAXE_DIM_CAP = 512
SUMMAND_DIM_CAP = 256
COMMUTANT_DIM_CAP = 48
SPLIT_TRIES = 60  # corner draws per piece before it counts as indecomposable


class GF2Module:
    """A GF(2)-module given by generator action matrices (row convention).

    Permutation modules keep their point labels, the generators' actions as
    position lists (`perms`) and a reference to the group, so orbital
    endomorphisms stay available through block cuts.  Summands made by
    `summand_split` carry their `origin` in the parent module.
    """

    def __init__(self, mats, dim, group: PermGroup | None = None,
                 labels=None, endo_spanning=None, perms=None):
        self.mats = mats if mats else [BitMatrix.identity(dim)]
        self.dim = dim
        self.group = group
        self.labels = labels
        self.perms = perms
        self.origin = None
        self._endo_spanning = endo_spanning  # callable yielding BitMatrix spans
        self._orbitals = None
        self._class_parities = None  # see _orbital_coefficients
        for m in self.mats:
            if not m.nrows == m.ncols == dim:
                raise InvariantViolation(
                    f"action matrix is {m.nrows}x{m.ncols}, module dim {dim}")
            if m.rank() != dim:
                raise InvariantViolation("action matrix not invertible")

    def verify_action(self, rng=None) -> bool:
        """Spot-check rho(g)rho(h) = rho(gh) on random generator products."""
        if self.group is None or self.labels is None:
            return True
        rng = rng or random.Random(0)
        gens = self.group.generators
        if not gens:
            return True
        for _ in range(6):
            g = gens[rng.randrange(len(gens))]
            h = gens[rng.randrange(len(gens))]
            lhs = _perm_action_matrix(self.group, self.labels, g) * \
                _perm_action_matrix(self.group, self.labels, h)
            rhs = _perm_action_matrix(self.group, self.labels, mul(g, h))
            if lhs != rhs:
                return False
        return True

    def export_text(self) -> str:
        parts = [f"# module dim={self.dim} generators={len(self.mats)}"]
        parts += [m.export_text() for m in self.mats]
        return "\n".join(parts)


def _action_positions(G: PermGroup, labels, g) -> list:
    """Position of lab^g for each label: g's action on the points as an index table."""
    pos = {lab: n for n, lab in enumerate(labels)}
    return [pos[G.idx(conj(G.elements[lab], g))] for lab in labels]


def _perm_matrix(images) -> BitMatrix:
    return BitMatrix([1 << t for t in images], len(images))


def _perm_action_matrix(G: PermGroup, labels, g) -> BitMatrix:
    return _perm_matrix(_action_positions(G, labels, g))


def conjugation_module(G: PermGroup, labels) -> GF2Module:
    """Permutation module on a conjugation-stable set of element indices."""
    labels = sorted(labels)
    perms = [_action_positions(G, labels, g) for g in G.generators]
    return GF2Module([_perm_matrix(p) for p in perms], len(labels), group=G,
                     labels=labels, perms=perms)


def involution_perm_module(G: PermGroup) -> GF2Module:
    """k-Omega: the conjugation module on {g : g^2 = 1}."""
    omega = G.involution_indices()
    if len(omega) > OMEGA_CAP:
        raise CapExceeded(f"|Omega| = {len(omega)} exceeds {OMEGA_CAP}")
    return conjugation_module(G, omega)


def class_sum_matrix(G: PermGroup, labels, members) -> BitMatrix:
    """Sum over the class of permutation matrices, mod 2."""
    pos = {lab: n for n, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for m in members:
        g = G.elements[m]
        for n, lab in enumerate(labels):
            rows[n] ^= 1 << pos[G.idx(conj(G.elements[lab], g))]
    return BitMatrix(rows, len(labels))


def _orbitals(module: GF2Module) -> list:
    """G-orbits on pairs of points of a permutation module.

    [(i0, j0, adjacency BitMatrix)] with (i0, j0) the first pair of the
    orbital in row-major order, so i0 is the least point of its G-orbit.
    Computed once per module by a search on the position lists."""
    if module._orbitals is None:
        n = module.dim
        full = (1 << n) - 1
        seen = [0] * n
        out = []
        for i0 in range(n):
            while seen[i0] != full:
                free = ~seen[i0] & full
                j0 = (free & -free).bit_length() - 1
                rows = [0] * n
                seen[i0] |= 1 << j0
                rows[i0] = 1 << j0
                frontier = [(i0, j0)]
                while frontier:
                    nxt = []
                    for i, j in frontier:
                        for p in module.perms:
                            i2, bit = p[i], 1 << p[j]
                            if not seen[i2] & bit:
                                seen[i2] |= bit
                                rows[i2] |= bit
                                nxt.append((i2, p[j]))
                    frontier = nxt
                out.append((i0, j0, BitMatrix(rows, n)))
        module._orbitals = out
    return module._orbitals


def _orbital_matrices(module: GF2Module) -> list:
    """Adjacency matrices of the G-orbits on labels x labels."""
    return [O for _i0, _j0, O in _orbitals(module)]


def _orbital_coefficients(table: CharacterTable, coeffs, module: GF2Module):
    """[(c_O, A_O)] with sum_O c_O A_O = sum_j coeffs[j] C_j+ on the module.

    A class sum commutes with G, so it is constant on each orbital and c_O
    is its (i0, j0) entry: sum_j coeffs[j] #{g in C_j : lab_i0^g = lab_j0}
    mod 2, for coefficients in GF(2).  Bit t of the parity row (i0, j) is
    #{g in C_j : lab_i0^g = lab_t} mod 2, counted once per module from the
    image of lab_i0 under every element (`PermGroup.walk`)."""
    if module._class_parities is None:
        module._class_parities = {}
        for i0, _j0, _O in _orbitals(module):
            if i0 not in module._class_parities:
                image = table.group.walk(module.perms, i0)
                module._class_parities[i0] = [
                    reduce(xor, (1 << image[m] for m in cls.members), 0)
                    for cls in table.classes]
    rows = {i0: reduce(xor, compress(parities, coeffs), 0)
            for i0, parities in module._class_parities.items()}
    return [(rows[i0] >> j0 & 1, O) for i0, j0, O in _orbitals(module)]


def block_projector(table: CharacterTable, block: BlockData, module: GF2Module):
    """(P, length): the GF(2) matrix P of the Frobenius-orbit sum of e_B on a
    permutation module, from its orbital coefficients, and the orbit length.

    Squaring the GF(2^F) coefficients of e_B permutes the blocks conjugate
    to B; the sum over that orbit is GF(2)-rational, and it is an idempotent
    because distinct block idempotents are orthogonal.  When e_B is itself
    rational the orbit is {e_B} and the length is 1."""
    F = GF2Field(block.field_f)
    coeffs = block_idempotent_support(table, block)
    total, cur, length = list(coeffs), [F.mul(c, c) for c in coeffs], 1
    while cur != coeffs:
        total = [a ^ b for a, b in zip(total, cur)]
        cur = [F.mul(c, c) for c in cur]
        length += 1
    if not all(c in (0, 1) for c in total):
        raise InvariantViolation("Frobenius orbit sum of e_B is not rational")
    acc = BitMatrix.zero(module.dim, module.dim)
    for c, O in _orbital_coefficients(table, total, module):
        if c:
            acc = acc + O
    if acc * acc != acc:
        raise NotIdempotent("block projector is not idempotent")
    return acc, length


def block_cut(table: CharacterTable, block: BlockData, module: GF2Module):
    """The component e_B * M of a permutation module M.

    When e_B is GF(2)-rational this is a GF2Module written in the projector
    rows.  Otherwise the blocks in the Frobenius orbit of e_B cut out
    summands of equal dimension, so the result is a GFModule of dimension
    rank(orbit sum) / (orbit length)."""
    proj, length = block_projector(table, block, module)
    if length > 1:
        orbit_dim = proj.rank()
        if orbit_dim % length:
            raise InvariantViolation(
                f"orbit cut dim {orbit_dim} not divisible by orbit length {length}")
        return GFModule(GF2Field(block.field_f), orbit_dim // length)
    ech = Echelon(proj.rows).reduced_basis()
    basis = ech.vectors
    cut_mats = [restrict(ech, map(m.mul_vec, basis), "cut") for m in module.mats]

    def endo_spanning():
        # e commutes with every orbital matrix O (both commute with G), so
        # v*O = v*e*O = (v*O)*e already lies in eM for v in eM
        for O in _orbital_matrices(module):
            yield restrict(ech, map(O.mul_vec, basis), "cut")

    return GF2Module(cut_mats, len(basis), group=module.group,
                     labels=None, endo_spanning=endo_spanning)


class GFModule:
    """A block cut over GF(2^f) for a non-GF(2)-rational e_B: its dimension.

    No action matrices are built: `mats` is always None."""

    def __init__(self, field: GF2Field, dim):
        self.field = field
        self.mats = None
        self.dim = dim


# ---------------------------------------------------------------------------
# composition factors and summands
# ---------------------------------------------------------------------------

def meataxe_factors(module, seed=0):
    """Iso-classes of composition factors: [(Constituent, dim, multiplicity)]."""
    if isinstance(module, GFModule):
        raise FieldTooSmall("MeatAxe implemented over GF(2) modules only")
    if module.dim > MEATAXE_DIM_CAP:
        raise CapExceeded(f"dim {module.dim} exceeds {MEATAXE_DIM_CAP}")
    factors = chop(module.mats, module.dim, seed=seed)
    grouped = group_constituents(factors, seed=seed)
    return [(c, c.dim, mult) for c, mult in grouped]


def dual_module(module: GF2Module) -> GF2Module:
    """The contragredient module: g acts by rho(g^-1)^T."""
    mats = [m.inverse().transpose() for m in module.mats]
    return GF2Module(mats, module.dim, group=module.group)


def _flatten(mat: BitMatrix) -> int:
    v = 0
    for i, r in enumerate(mat.rows):
        v |= r << (i * mat.ncols)
    return v


def _independent(mats) -> list:
    """The matrices that enlarge the span of those before them."""
    flat = Echelon()
    return [m for m in mats if flat.add(_flatten(m))]


def endomorphism_basis(module: GF2Module):
    """Basis of End_kG(M) as BitMatrices."""
    if module._endo_spanning is not None:
        return _independent(module._endo_spanning())
    if module.perms is not None:
        return _independent(_orbital_matrices(module))
    if module.dim > COMMUTANT_DIM_CAP:
        raise CapExceeded(
            f"generic commutant solve capped at dim {COMMUTANT_DIM_CAP}")
    return hom_space(module, module)


@dataclass
class SummandOrigin:
    """Where a summand sits in the module M that `summand_split` split."""
    endo: list       # basis of End(M), shared by all summands of the split
    split: Echelon   # the bases of all summands (M's coordinates), concatenated
    offset: int      # this summand's basis is split.vectors[offset:offset + dim]


class _Piece:
    """A direct summand P of M in its own coordinates, as `summand_split` holds it.

    `basis` holds P's basis as the rows of a d x n matrix in M's coordinates,
    `mats` the action on P (d x d), and `corner` a basis of End_kG(P) (d x d)."""

    def __init__(self, basis: BitMatrix, mats, corner):
        self.basis = basis
        self.mats = mats
        self.corner = corner
        self._gens = None

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def generators(self) -> list:
        """Unit vectors that generate P as a kG-module, chosen greedily."""
        if self._gens is None:
            gens, span = [], Echelon()
            for i in range(self.dim):
                if len(span) == self.dim:
                    break
                if span.reduce(1 << i):
                    gens.append(1 << i)
                    span = spin(gens, self.mats)
            self._gens = gens
        return self._gens

    def minpoly(self, a: BitMatrix) -> int:
        """The minimal polynomial of a corner element a on P.

        a commutes with G, so the kernel of a polynomial in a is a
        submodule, and the minimal polynomial is the lcm of the local
        minimal polynomials of a set of kG-generators."""
        m = 1
        for w in self.generators():
            m = poly_lcm(m, krylov_relation(w, a.mul_vec, self.dim))
        return m

    def split(self, k: BitMatrix) -> list:
        """[kP, (1 + k)P] for an idempotent k of the corner, each in its own
        coordinates: the reduced rows of the idempotent."""
        out = []
        for e in (k, k + BitMatrix.identity(self.dim)):
            sub = Echelon(e.rows).reduced_basis()
            vecs = sub.vectors
            # End(eP) = e End(P) e, and v*b*e lies in eP for v in eP
            corner = _independent(
                restrict(sub, (e.mul_vec(b.mul_vec(v)) for v in vecs), "summand")
                for b in self.corner)
            mats = [restrict(sub, map(m.mul_vec, vecs), "summand") for m in self.mats]
            out.append(_Piece(BitMatrix(vecs, self.dim) * self.basis, mats, corner))
        return out


def summand_split(module: GF2Module, seed=0):
    """Indecomposable direct summands via idempotents of End(M).

    Each piece P of the split lives in its own coordinates (`_Piece`); the
    first is M itself with End(M) as its corner.  A one-dimensional corner
    is k, so P is indecomposable and is recorded at once.  Otherwise
    uniform random corner elements a are split through the idempotents of
    GF(2)[a] (found linearly: x -> x^2 + x), with the minimal polynomial of
    a taken from the Krylov sequences of a few kG-generators of P.  An
    idempotent k splits P into kP and (1 + k)P; pieces where no proper
    idempotent appears within SPLIT_TRIES draws are reported
    indecomposable.  Each summand's `origin` records its place in the
    decomposition of M.
    """
    if module.dim > SUMMAND_DIM_CAP:
        raise CapExceeded(f"dim {module.dim} exceeds {SUMMAND_DIM_CAP}")
    if module.dim == 0:
        return []
    rng = random.Random(seed)
    endo = endomorphism_basis(module)
    work = [_Piece(BitMatrix.identity(module.dim), module.mats, endo)]
    final = []
    while work:
        piece = work.pop()
        found = None
        if len(piece.corner) > 1:
            for _ in range(SPLIT_TRIES):
                found = _proper_corner_idempotent(_corner_draw(piece.corner, rng),
                                                  piece)
                if found is not None:
                    break
        if found is None:
            final.append(piece)
        else:
            work.extend(piece.split(found))
    total = sum(p.dim for p in final)
    split = Echelon(v for p in final for v in p.basis.rows)
    if not len(split) == total == module.dim:
        raise InvariantViolation("summands do not decompose the module")
    summands = []
    offset = 0
    for p in final:
        s = GF2Module(p.mats, p.dim, group=module.group)
        s.origin = SummandOrigin(endo, split, offset)
        offset += p.dim
        summands.append(s)
    summands.sort(key=lambda s: s.dim)
    return summands


def _corner_draw(corner, rng) -> BitMatrix:
    """A uniform element of the corner algebra: a random subset sum of its basis."""
    mask = rng.getrandbits(len(corner))
    acc = BitMatrix.zero(corner[0].nrows, corner[0].ncols)
    for t, b in enumerate(corner):
        if (mask >> t) & 1:
            acc = acc + b
    return acc


def _proper_corner_idempotent(a, piece: _Piece):
    """An idempotent k with 0 != k != 1 in GF(2)[a], if one exists.

    In char 2 the idempotents of the commutative ring GF(2)[x]/(m) form the
    kernel of the linear map q -> q^2 + q, so they are found by linear
    algebra over GF(2)."""
    m = piece.minpoly(a)
    deg = m.bit_length() - 1
    if deg < 2:
        return None
    # squaring matrix on GF(2)[x]/(m): column i = x^(2i) mod m
    rows = []
    for i in range(deg):
        sq = poly_mulmod(1 << i, 1 << i, m)
        rows.append(sq ^ (1 << i))  # (x^i)^2 + x^i
    ker = BitMatrix(rows, deg).kernel()
    one = BitMatrix.identity(piece.dim)
    for q in ker:
        if q == 0 or q == 1:
            continue
        cand = eval_poly(a, q)
        if cand.is_zero() or cand == one:
            continue
        if cand * cand != cand:
            raise InvariantViolation("candidate corner idempotent is not idempotent")
        return cand
    return None


def hom_space(m1: GF2Module, m2: GF2Module):
    """Basis of Hom_kG(M1, M2) (X with A_g X = X B_g), as BitMatrices.

    The general path: one linear solve in n1*n2 unknowns."""
    n1, n2 = m1.dim, m2.dim
    if n1 * n2 > COMMUTANT_DIM_CAP ** 2 * 4:
        raise CapExceeded("hom space solve too large")
    rows = []
    for A, B in zip(m1.mats, m2.mats):
        Bt = B.transpose()
        for i in range(n1):
            for j in range(n2):
                v = 0
                for a_ in range(n1):
                    if A.get(i, a_):
                        v ^= 1 << (a_ * n2 + j)
                for b_ in range(n2):
                    if Bt.get(j, b_):
                        v ^= 1 << (i * n2 + b_)
                rows.append(v)
    sols = BitMatrix(rows, n1 * n2).transpose().kernel()
    out = []
    for x in sols:
        mrows = [(x >> (i * n2)) & ((1 << n2) - 1) for i in range(n1)]
        out.append(BitMatrix(mrows, n2))
    return out


def summand_homs(m1: GF2Module, m2: GF2Module):
    """Basis of Hom_kG(eM, fM) for two summands of one `summand_split`.

    A hom phi: eM -> fM extends to the endomorphism v -> phi(v*e) of M, so
    the homs are exactly the maps v -> v*a*f with a in End(M).  The image
    v*a*f is the fM part of v*a: its coordinates over the concatenated
    summand bases, sliced at fM's offset."""
    o1, o2 = m1.origin, m2.origin
    split = o1.split
    basis = split.vectors[o1.offset:o1.offset + m1.dim]
    low = (1 << m2.dim) - 1
    return _independent(
        BitMatrix([(split.solve(a.mul_vec(v)) >> o2.offset) & low for v in basis],
                  m2.dim)
        for a in o1.endo)


def modules_isomorphic(m1: GF2Module, m2: GF2Module) -> bool:
    """Explicit isomorphism search through the hom space."""
    if m1.dim != m2.dim:
        return False
    if m1.origin is not None and m2.origin is not None \
            and m1.origin.split is m2.origin.split:
        homs = summand_homs(m1, m2)
    else:
        homs = hom_space(m1, m2)
    if not homs:
        return m1.dim == 0
    if len(homs) > 16:
        raise CapExceeded("hom space too large to enumerate")
    for mask in range(1, 1 << len(homs)):
        acc = None
        for t, h in enumerate(homs):
            if (mask >> t) & 1:
                acc = h if acc is None else acc + h
        if acc is not None and acc.rank() == m1.dim:
            return True
    return False


def group_summands(summands):
    """[(dim, multiplicity)] with explicit-hom isomorphism grouping."""
    classes = []
    for s in summands:
        for entry in classes:
            if modules_isomorphic(entry[0], s):
                entry[1] += 1
                break
        else:
            classes.append([s, 1])
    classes.sort(key=lambda e: (e[0].dim, -e[1]))
    return [(s, m) for s, m in classes]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def o2_principal_check(table: CharacterTable, t_index: int) -> bool:
    """Every component of k[cl(t)] for t an involution in O_2(G) lies in the
    principal block: all non-principal cuts must vanish."""
    G = table.group
    t = G.elements[t_index]
    if mul(t, t) != identity(G.degree):
        raise NotInO2("element is not an involution")
    core = G.o2_core()
    if t not in core.index:
        raise NotInO2("element is not in O_2(G)")
    cls = G.conjugacy_classes()[G.class_of[t_index]]
    module = conjugation_module(G, cls.members)
    for b in block_partition(table):
        if b.is_principal:
            continue
        cut = block_cut(table, b, module)
        if cut.dim != 0:
            return False
    return True


def dimension_valuation_check(table: CharacterTable, block: BlockData,
                              couple, summands) -> dict:
    """Necessary vertex bounds: nu(dim M) >= nu[G:D] and
    nu(dim M) >= nu|G| - max_t nu|C_D(t)| over involutions t with E = D<t>."""
    G = table.group
    D, E = couple.D, couple.E
    nuG = nu(G.order)
    bound1 = nuG - nu(D.order)
    ident = identity(G.degree)
    if E.order == D.order:
        pool = [x for x in D.elements if mul(x, x) == ident]
    else:
        pool = [x for x in E.elements if x not in D.index and mul(x, x) == ident]
    # |C_D(t)|: the part of C_E(t) that lies in D
    cents = [sum(1 for g in E.centralizer(t).elements if g in D.index) for t in pool]
    bound2 = nuG - nu(max(cents)) if cents else None
    rows = []
    ok = True
    for s in summands:
        v = nu(s.dim)
        passed = v >= bound1 and (bound2 is None or v >= bound2)
        ok = ok and passed
        rows.append({"dim": s.dim, "nu": v, "pass": passed})
    return {"bound_index": bound1, "bound_centralizer": bound2,
            "summands": rows, "ok": ok}
