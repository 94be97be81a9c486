"""GF(2) permutation modules on involutions, block cuts, and summands.

Row-vector modules over GF(2); coordinates of a permutation module are
labelled by element indices of the underlying G-set, and each generator's
action is kept as a list of positions.  The endomorphism algebra of a
permutation module is spanned by its orbital matrices (the G-orbits on
pairs of points, computed once per module), and the whole module layer
works from them:

* Orbitals.  The orbitals that start in a G-orbit X of points are the
  orbits of the stabilizer of its least point i0, found by Schreier
  transport: a BFS from i0 carries the labels of row i0 to every row of X,
  and each non-tree edge of the BFS is one list compare of two transported
  rows (`_stabilizer_orbits`).  The label rows, the orbital of each pair,
  give the adjacency matrices and the structure constants.
* Block projectors.  A class sum commutes with G, so it is constant on
  each orbital, and a central element acts as sum_O c_O A_O.  The
  coefficient c_O is the (i0, j0) entry for one representative pair of O:
  the weighted count of g with lab_i0^g = lab_j0, computed for one row i0
  per G-orbit of points.  The projector is always the Frobenius-orbit sum
  of e_B in these coordinates, which is e_B itself when e_B is rational; a
  non-rational e_B gives only the dimension of its cut (`GFModule`).
  `class_sum_matrix` stays as the independent oracle for the tests.
* The endomorphism algebra H = End(M) has the orbital matrices O_a as its
  basis, and its structure constants are the intersection numbers of the
  coherent configuration mod 2 (`_orbital_products`), computed once per
  module.
* Block cuts and summands are one kind of module: fM for an idempotent f
  of H, which keeps H with f as unit (fHf = End(fM)) and the reduced row
  space of f on M (`_image`).  A block cut has f = e_B, central in H.
  Its action matrices are built only when first read, and then checked: a
  generator moves a vector of M as a gather of its binary string
  (`_span_action`).  The split never reads a cut's matrices.
* Summands.  The split and the grouping work in H on r-bit vectors, for r
  orbitals, and never on vectors of M (condensation).  A piece is an
  idempotent f of H; it is indecomposable when its corner fHf is local,
  which is certified by a walk over the corner's elements: fHf is local
  iff no unit lies in the span of its non-units (`_corner_is_local`).
  Above CORNER_WALK_CAP the chop of the regular module of fHf certifies it
  instead.  Otherwise random corner elements give idempotents of GF(2)[a]
  that split it.  A final piece f is the module fM, like a cut.  fM and
  gM are isomorphic iff f lies in the span of fHg * gHf, for f and g from
  one cut of M or two.  The certificate and that test build the
  multiplication matrix (`H.left`, `H.right`) of each basis element once.
* Composition factors.  Every cut the MeatAxe takes is split first, and
  the MeatAxe chops one summand per isomorphism class, each factor counted
  once per copy (`decompose_cut`).  The split's cost follows the number of
  orbitals r, not dim M, so MEATAXE_DIM_CAP, checked before the split, is
  the one cap on a cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress
from operator import add, itemgetter, xor

from .blocks import BlockData, block_idempotent_support, block_partition
from .chartab import CharacterTable
from .errors import (CapExceeded, FieldTooSmall, InvariantViolation,
                     NotIdempotent, NotInO2)
from .gf2 import (BitMatrix, Echelon, GF2Field, krylov_relation, poly_idempotents,
                  restrict)
from .meataxe import chop, group_constituents
from .perm import PermGroup, conj, identity, mul, nu

OMEGA_CAP = 2048
MEATAXE_DIM_CAP = 512
COMMUTANT_DIM_CAP = 48
SPLIT_TRIES = 60  # corner draws per piece, the first before the locality certificate
# Corner dims up to which locality is certified by the unit walk; above it
# the regular module of fHf is chopped.  Timed per corner (min of 5 runs,
# 2-vCPU Xeon VM, Python 3.11) on every corner summand_split certifies in
# analyze_group on the seven benchmark ladder groups, seeds 0-29: every
# corner of dim 5 or more there is non-local, and the walk beats the chop at
# each dim up to 11 (dim 5: 0.35 against 0.86 ms, dim 8: 0.60 against
# 1.25 ms, dim 12: 4.4 against 2.6 ms).  A local corner costs the walk all
# 2^m rank tests: on k[x]/(x^m) it passes the chop at m = 7 (1.6 against
# 1.4 ms; m = 8: 3.4 against 1.8 ms; m = 9: 7.1 against 2.4 ms).  So the
# cap is the largest m at which a local corner costs at most twice the chop.
CORNER_WALK_CAP = 8


class GF2Module:
    """A GF(2)-module in the row convention, one of two kinds:

    * a permutation module M, given by the generators' actions on the
      points as position lists (`perms`);
    * the module fM cut out of M by an idempotent f of its orbital algebra
      H: `endo` is H with f as unit, so that fHf = End(fM), and `basis` is
      the reduced row space of f on M, which is `endo.module`.

    The generators' action matrices are built on the first read of `mats`,
    and checked there: permutation matrices for M, a gather of `basis` for
    fM (`_span_action`)."""

    def __init__(self, dim, perms=None, endo=None, basis=None):
        self.dim = dim
        self.perms = perms
        self.endo = endo
        self.basis = basis
        self._mats = None
        self._orbitals = None
        self._labels = None  # see _orbitals
        self._products = None  # see _orbital_products
        self._class_parities = None  # see _orbital_coefficients

    @property
    def idempotent(self) -> int:
        """f of the module fM: the unit of its algebra."""
        return self.endo.one

    @property
    def mats(self) -> list:
        if self._mats is None:
            self._mats = self._checked(list(map(_perm_matrix, self.perms)) if self.basis is None
                                       else _span_action(self.basis, self.endo.module))
        return self._mats

    def _checked(self, mats) -> list:
        for m in mats:
            if not m.nrows == m.ncols == self.dim:
                raise InvariantViolation(
                    f"action matrix is {m.nrows}x{m.ncols}, module dim {self.dim}")
            if m.rank() != self.dim:
                raise InvariantViolation("action matrix not invertible")
        return mats

    def export_text(self) -> str:
        parts = [f"# module dim={self.dim} generators={len(self.mats)}"]
        parts += [m.export_text() for m in self.mats]
        return "\n".join(parts)


def _perm_matrix(images) -> BitMatrix:
    return BitMatrix([1 << t for t in images], len(images))


def _span_action(ech: Echelon, module: GF2Module) -> list:
    """The generators' action on a stable span of a permutation module,
    written in its basis (`restrict`).  A vector is moved as its dim-digit
    binary string, where bit x is character dim-1-x: a generator sends bit
    x to bit p[x], so the image is a gather of the string."""
    n = module.dim
    strings = [format(v, f"0{n}b") for v in ech.vectors]
    out = []
    for p in module.perms:
        gather = [0] * n
        for x, y in enumerate(p):
            gather[n - 1 - y] = n - 1 - x
        moved = itemgetter(*gather)
        out.append(restrict(ech, (int("".join(moved(s)), 2) for s in strings)))
    return out


def conjugation_module(G: PermGroup, labels) -> GF2Module:
    """Permutation module on a conjugation-stable set of element indices: each
    generator's action is read off its conjugation row (no generator: 1 acts)."""
    labels = sorted(labels)
    pos = {lab: n for n, lab in enumerate(labels)}
    perms = [list(map(pos.__getitem__, map(row.__getitem__, labels)))
             for row in G.conjugation_rows()] or [list(range(len(labels)))]
    return GF2Module(len(labels), perms=perms)


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
    orbital in row-major order, so i0 is the least point of its G-orbit X,
    and the orbitals that start in X are the orbits of Stab(i0) on the
    points, in the order of their least points (`_stabilizer_orbits`).
    Label row i holds the index of the orbital of (i, j) for each point j;
    the adjacency matrices are read off the label rows, and the rows of the
    first pairs' points stay in `module._labels` for `_orbital_products`.
    Computed once per module."""
    if module._orbitals is None:
        n, perms = module.dim, module.perms
        inverses = [[0] * n for _ in perms]
        for p, q in zip(perms, inverses):
            for x, y in enumerate(p):
                q[y] = x
        labels, adjacency, out = [None] * n, [], []
        bits = [1 << j for j in range(n)]
        for i0 in range(n):
            if labels[i0] is not None:
                continue
            base = len(out)
            first, orbit = _stabilizer_orbits(i0, perms, inverses, labels, base)
            adjacency += [[0] * n for _ in first]
            for i in orbit:
                for a, bit in zip(labels[i], bits):
                    adjacency[a][i] |= bit
            out += [(i0, j0, BitMatrix(adjacency[base + a], n)) for a, j0 in enumerate(first)]
        module._orbitals = out
        module._labels = {i: labels[i] for pair in out for i in pair[:2]}
    return module._orbitals


def _stabilizer_orbits(i0, perms, inverses, labels, base) -> tuple:
    """(first points, orbit): the orbits of Stab(i0) on the points, by
    Schreier transport, with the label rows of i0's G-orbit filled in.

    A BFS from i0 on the position lists gives, for each point i of the
    orbit, the position list v_i of g_i^-1 for an element g_i with
    i0^g_i = i (v_j = v_i o p^-1 along a tree edge i -p-> j), so that (i, j)
    lies in the orbital of (i0, v_i[j]).  By Schreier's lemma the elements
    g_i p g_j^-1 of the non-tree edges i -p-> j generate Stab(i0), so a
    partition lab of the points is Stab(i0)-stable iff R_j o p = R_i on each
    of them, with R_i = lab o v_i.  Starting from the points apart, a failing
    edge merges each pair it tells apart (union-find); an edge that holds
    keeps holding as lab grows coarser, so one pass over the edges ends at
    the orbits.  lab[y] is the root of y, so R_i = v_i to begin with, and a
    row left from before a merge is brought up to date by lab o R_i when an
    edge next reads it.  Label row i is R_i with each class renumbered from
    `base` in the order of its least point."""
    n = len(labels)
    rows, orbit, edges = {i0: list(range(n))}, [i0], []
    for i in orbit:
        ri = rows[i]
        for p, q in zip(perms, inverses):
            j = p[i]
            if j in rows:
                edges.append((i, p, j))
            else:
                rows[j] = list(map(ri.__getitem__, q))
                orbit.append(j)
    lab, parent = list(range(n)), list(range(n))
    merges, stamp = 0, dict.fromkeys(orbit, 0)  # the merges each row has seen

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    def row(i):
        if stamp[i] != merges:
            rows[i] = list(map(lab.__getitem__, rows[i]))
            stamp[i] = merges
        return rows[i]

    for i, p, j in edges:
        moved, ri = list(map(row(j).__getitem__, p)), row(i)
        if moved != ri:
            for a, b in zip(ri, moved):
                a, b = find(a), find(b)
                if a != b:
                    parent[max(a, b)] = min(a, b)
            lab = list(map(find, lab))
            merges += 1
    index, first = {}, []
    for y, c in enumerate(lab):
        if c not in index:
            index[c] = base + len(first)
            first.append(y)
    final = [index[c] for c in lab]  # final o R_i is label row i, stale R_i or not
    for i in orbit:
        labels[i] = list(map(final.__getitem__, rows.pop(i)))
    return first, orbit


def _orbital_coefficients(table: CharacterTable, coeffs, module: GF2Module) -> int:
    """The orbital coordinates of sum_j coeffs[j] C_j+ on the module: bit a
    is c_O for the a-th orbital O, with sum_O c_O A_O the class sum.

    A class sum commutes with G, so it is constant on each orbital and c_O
    is its (i0, j0) entry: sum_j coeffs[j] #{g in C_j : lab_i0^g = lab_j0}
    mod 2, for coefficients in GF(2).  Bit t of the parity row (i0, j) is
    #{g in C_j : lab_i0^g = lab_t} mod 2, counted once per module from the
    image of lab_i0 under every element (`PermGroup.walk`)."""
    if module._class_parities is None:
        module._class_parities = {}
        bits = [1 << t for t in range(module.dim)]
        for i0, _j0, _O in _orbitals(module):
            if i0 not in module._class_parities:
                image = table.group.walk(module.perms, i0)
                module._class_parities[i0] = [
                    reduce(xor, map(bits.__getitem__, map(image.__getitem__, cls.members)), 0)
                    for cls in table.classes]
    rows = {i0: reduce(xor, compress(parities, coeffs), 0)
            for i0, parities in module._class_parities.items()}
    return sum((rows[i0] >> j0 & 1) << a for a, (i0, j0, _O) in enumerate(_orbitals(module)))


def block_projector(table: CharacterTable, block: BlockData, module: GF2Module):
    """(e, length): the orbital coordinates e of the Frobenius-orbit sum of
    e_B on a permutation module, an idempotent of `endomorphism_basis`, and
    the orbit length.

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
    H = endomorphism_basis(module)
    e = _orbital_coefficients(table, total, module)
    if H.mul(e, e) != e:
        raise NotIdempotent("block projector is not idempotent")
    return e, length


def block_cut(table: CharacterTable, block: BlockData, module: GF2Module):
    """The component e_B * M of a permutation module M.

    When e_B is GF(2)-rational this is a GF2Module written in the projector
    rows.  Otherwise the blocks in the Frobenius orbit of e_B cut out
    summands of equal dimension, so the result is a GFModule of dimension
    rank(orbit sum) / (orbit length), over GF(2^length): the coefficients
    of e_B are fixed by the length-th power of the Frobenius map."""
    e, length = block_projector(table, block, module)
    H = endomorphism_basis(module)
    if length > 1:
        orbit_dim = H.matrix(e).rank()
        if orbit_dim % length:
            raise InvariantViolation(
                f"orbit cut dim {orbit_dim} not divisible by orbit length {length}")
        return GFModule(GF2Field(length), orbit_dim // length)
    return _image(H, e)


def _image(H, f: int) -> GF2Module:
    """fM for an idempotent f of the algebra H of M, in the reduced row
    space of f's matrix on M, with f as the unit of End(fM) = fHf."""
    basis = Echelon(H.matrix(f).rows).reduced_basis(H.module.dim)
    return GF2Module(len(basis), endo=replace(H, one=f), basis=basis)


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

def meataxe_factors(module, summands, seed=0):
    """Iso-classes of composition factors: [(Constituent, dim, multiplicity)].

    `summands` is the module's split up to isomorphism, [(summand,
    multiplicity)] from `group_summands`: one summand per class is chopped,
    on its own action matrices, which stay cached on it, and its factors
    count once per copy.  All pieces share the simples found so far
    (`chop`'s `known`), so a factor is known by its class."""
    known, factors = [], []
    for s, mult in summands:
        factors += chop(s.mats, s.dim, seed=seed, known=known) * mult
    if sum(c.dim for c in factors) != module.dim:
        raise InvariantViolation("the summands' factors do not add up to the module")
    return [(c, c.dim, mult) for c, mult in group_constituents(factors)]


def decompose_cut(cut: GF2Module, seed=0):
    """(factors, summands, grouped) of a block cut: the summand split, its
    grouping, then the MeatAxe factors chopped one summand per class
    (`meataxe_factors`).  A cut over GF(2^f) and a cut above
    MEATAXE_DIM_CAP are refused before the split."""
    if isinstance(cut, GFModule):
        raise FieldTooSmall("MeatAxe implemented over GF(2) modules only")
    if cut.dim > MEATAXE_DIM_CAP:
        raise CapExceeded(f"dim {cut.dim} exceeds {MEATAXE_DIM_CAP}")
    summands = summand_split(cut, seed=seed)
    grouped = group_summands(summands)
    return meataxe_factors(cut, grouped, seed=seed), summands, grouped


def _select(items, mask: int):
    """The items at the set bits of mask."""
    return compress(items, (mask >> a & 1 for a in range(len(items))))


@dataclass
class EndAlgebra:
    """H = End_kG(M) on r-bit coordinate vectors: x stands for sum x_a B_a.

    `mats` is a basis B_0..B_{r-1} of matrices acting on `module` (the
    orbital matrices of a permutation module), row b of `products[a]` holds
    the coordinates of B_a*B_b, and `one` is the unit: the identity of
    `module`, or f for the module f*`module` (a block cut or a summand)."""
    module: GF2Module
    mats: list
    products: list
    one: int

    def left(self, x: int) -> BitMatrix:
        """The matrix of y -> x*y."""
        r = len(self.mats)
        return reduce(add, _select(self.products, x), BitMatrix.zero(r, r))

    def right(self, y: int) -> BitMatrix:
        """The matrix of x -> x*y: row a holds B_a*y."""
        return BitMatrix([P.mul_vec(y) for P in self.products], len(self.mats))

    def mul(self, x: int, y: int) -> int:
        return reduce(xor, (P.mul_vec(y) for P in _select(self.products, x)), 0)

    def sandwich(self, f: int, g: int) -> Echelon:
        """A basis of fHg, to solve against: the span of f*B_a*g."""
        left = self.left(f)
        return Echelon((left.mul_vec(P.mul_vec(g)) for P in self.products), len(self.mats))

    def matrix(self, x: int) -> BitMatrix:
        """sum x_a B_a, acting on `module`."""
        n = self.module.dim
        return reduce(add, _select(self.mats, x), BitMatrix.zero(n, n))


def _orbital_products(module: GF2Module) -> list:
    """P_a of the orbital basis: row b holds the orbital coordinates of O_a*O_b.

    The coefficient of O_c in O_a*O_b is its (i0_c, j0_c) entry, the number
    mod 2 of points k with (i0_c, k) in a and (k, j0_c) in b (the
    intersection numbers of the coherent configuration).  With the orbital
    of every pair in the label rows i0_c and j0_c (`_orbitals`), one pass
    over k per c gives all of them: r*n steps, computed once per module."""
    if module._products is None:
        orbitals = _orbitals(module)
        labels = module._labels
        r = len(orbitals)
        # (k, j) lies in the transpose of the orbital of (j, k)
        paired = [labels[j0][i0] for i0, j0, _O in orbitals]
        rows = [[0] * r for _ in range(r)]
        for c, (i0, j0, _O) in enumerate(orbitals):
            for a, b in zip(labels[i0], labels[j0]):
                rows[a][paired[b]] ^= 1 << c
        module._products = [BitMatrix(p, r) for p in rows]
    return module._products


def endomorphism_basis(module: GF2Module) -> EndAlgebra:
    """End_kG(M) with its structure constants.

    A module fM carries the orbital algebra of its permutation module with
    f as the unit; a permutation module has its orbital matrices.  Every
    module the package builds is one of the two."""
    if module.endo is not None:
        return module.endo
    if module.perms is None:
        raise InvariantViolation("a module with neither orbitals nor a cut algebra")
    orbitals = _orbitals(module)
    one = sum(1 << a for a, (i0, j0, _O) in enumerate(orbitals) if i0 == j0)
    return EndAlgebra(module, [O for _i0, _j0, O in orbitals], _orbital_products(module), one)


def summand_split(module: GF2Module, seed=0) -> list:
    """Indecomposable direct summands fM, for primitive idempotents f of
    End(M), sorted by dim (`_image`).

    All the work is on r-bit vectors of H = End(M) (`endomorphism_basis`).
    Uniform random elements a of a piece's corner fHf are split through the
    idempotents of GF(2)[a], with the minimal polynomial of a from its
    powers in the corner (found linearly: x -> x^2 + x); an idempotent k
    splits f into k and f + k.  A piece is recorded as indecomposable only
    when fHf is certified local (`_corner_is_local`), which is tried after
    the first draw finds no split; a piece that is neither split in
    SPLIT_TRIES draws nor certified raises InvariantViolation.
    """
    if module.dim == 0:
        return []
    rng = random.Random(seed)
    H = endomorphism_basis(module)
    work, final = [H.one], []
    while work:
        f = work.pop()
        corner = H.sandwich(f, f)
        draws = (_proper_corner_idempotent(H, f, _corner_draw(corner, rng))
                 for _ in range(SPLIT_TRIES))
        # one draw splits most pieces that split at all, and costs far less
        # than the certificate; a one-dimensional corner is local at once
        k = next(draws) if len(corner) > 1 else None
        if k is None:
            if _corner_is_local(H, f, corner):
                final.append(f)
                continue
            k = next(filter(None, draws), None)
            if k is None:
                raise InvariantViolation(
                    f"a corner of dim {len(corner)} is not local, but "
                    f"{SPLIT_TRIES} draws found no idempotent")
        work += [k, f ^ k]
    summands = sorted((_image(H, f) for f in final), key=lambda s: s.dim)
    if sum(s.dim for s in summands) != module.dim:
        raise InvariantViolation("summands do not decompose the module")
    return summands


def _corner_is_local(H: EndAlgebra, f: int, corner: Echelon) -> bool:
    """Certificate that fHf is local, so that fM is indecomposable.

    fHf is local iff its non-units are a subspace, its radical: a proper
    idempotent e would make e and f + e two non-units with the unit f as
    their sum.  So fHf is local iff no unit lies in the span of the
    non-units, and then the non-units number 2^(dim of their span).  An
    element, walked as its coordinate mask a over the corner's basis, is a
    unit iff y -> a*y has rank m = dim fHf.  The walk visits the 2^m
    elements in Gray-code order, so each step adds one basis element's
    matrix; it stops at the first unit in the span of the non-units found
    so far.  Above CORNER_WALK_CAP the right-regular module of fHf is
    chopped instead: fHf is local iff it has a single simple constituent S
    up to isomorphism, with dim S = dim End(S), read off S's certificate
    (`Constituent.end_dim`).  Either way each basis element's
    multiplication matrix is built once."""
    m = len(corner)
    if m == 1:
        return True  # fHf = k*f
    if m > CORNER_WALK_CAP:
        mats = [restrict(corner, map(H.right(b).mul_vec, corner.vectors), "corner")
                for b in corner.vectors]
        S, *others = chop(mats, m)
        return all(T is S for T in others) and S.end_dim == S.dim
    return _walk_is_local([restrict(corner, map(H.left(b).mul_vec, corner.vectors), "corner").rows
                           for b in corner.vectors])


def _walk_is_local(lefts) -> bool:
    """The unit walk of `_corner_is_local` over an algebra of dim m, given
    by the rows of left multiplication by each of its m basis elements."""
    m = len(lefts)
    nonunits, count, a, rows = Echelon(), 1, 0, [0] * m  # count: non-units walked, 0 too
    for step in range(1, 1 << m):
        t = (step & -step).bit_length() - 1
        a ^= 1 << t
        rows = list(map(xor, rows, lefts[t]))
        if len(Echelon(rows)) < m:
            nonunits.add(a)
            count += 1
        elif nonunits.reduce(a) == 0:
            return False
    return count == 1 << len(nonunits)


def _corner_draw(corner: Echelon, rng) -> int:
    """A uniform element of the corner algebra: a random subset sum of its basis."""
    return reduce(xor, _select(corner.vectors, rng.getrandbits(len(corner))), 0)


def _corner_minpoly(H: EndAlgebra, f: int, left: BitMatrix) -> int:
    """The minimal polynomial of a in the corner fHf, with left = H.left(a):
    the first relation among its powers f, a, a^2, ..."""
    return krylov_relation(f, left.mul_vec, len(H.mats))


def _proper_corner_idempotent(H: EndAlgebra, f: int, a: int):
    """An idempotent k with 0 != k != f in GF(2)[a], if one exists: q(a)
    for q in the basis of the idempotents of GF(2)[x]/(m)
    (`gf2.poly_idempotents`), with m the minimal polynomial of a.  The
    basis holds 1, which gives k = f, and spans every idempotent, so when
    no basis vector gives a proper k, GF(2)[a] is local."""
    left = H.left(a)
    for q in poly_idempotents(_corner_minpoly(H, f, left)):
        k = 0
        for i in range(q.bit_length() - 1, -1, -1):  # q(a) by Horner
            k = left.mul_vec(k) ^ (f if q >> i & 1 else 0)
        if k in (0, f):
            continue
        if H.mul(k, k) != k:
            raise InvariantViolation("candidate corner idempotent is not idempotent")
        return k
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


def _summands_isomorphic(s: GF2Module, t: GF2Module) -> bool:
    """fM = gM iff f lies in the span of the products fHg * gHf, for
    indecomposable fM and gM cut out of one module M.

    That span is an ideal of fHf, which is local, so it is either all of
    fHf or lies in its radical; f is in it exactly when some x*y with
    x in fHg, y in gHf is a unit of fHf, that is, when fM and gM are
    isomorphic."""
    H, f, g = s.endo, s.idempotent, t.idempotent
    if t.endo.module is not H.module:
        raise InvariantViolation("summands of different modules")
    back = H.sandwich(g, f).vectors
    ideal = Echelon(L.mul_vec(y) for L in map(H.left, H.sandwich(f, g).vectors) for y in back)
    return ideal.reduce(f) == 0


def group_summands(summands):
    """[(summand, multiplicity)]: the summands of one split up to isomorphism."""
    classes = []
    for s in summands:
        for entry in classes:
            if entry[0].dim == s.dim and _summands_isomorphic(entry[0], s):
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
    if t not in core:
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


def dimension_valuation_check(table: CharacterTable, block: BlockData, summands) -> dict:
    """Necessary vertex bounds: nu(dim M) >= nu[G:D] and
    nu(dim M) >= nu|G| - max_t nu|C_D(t)| over involutions t with E = D<t>,
    for the defect couple (D, E) of the block."""
    G = table.group
    D, E = block.couple.D, block.couple.E
    nuG = nu(G.order)
    bound1 = nuG - nu(D.order)
    ident = identity(G.degree)
    if E.order == D.order:
        pool = [x for x in D.elements if mul(x, x) == ident]
    else:
        pool = [x for x in E.elements if x not in D and mul(x, x) == ident]
    # |C_D(t)|: the part of C_E(t) that lies in D
    cents = [sum(1 for g in E.centralizer(t).elements if g in D) for t in pool]
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
