"""Independent test oracles (kept apart from the package under test)."""

import random
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate
from math import gcd
from operator import add

from workbench import cyclotomic, meataxe
from workbench.blocks import omega_field
from workbench.cyclotomic import _phi_degree, _power_table, power_coords, prime_divisors
from workbench.errors import CapExceeded, InvariantViolation, NotTwoIntegral
from workbench.gf2 import (BitMatrix, Echelon, GF2Field, eval_poly, krylov_relation,
                           multiplicative_order_of_2, poly_lcm, poly_mulmod, restrict)
from workbench.meataxe import chop, spin
from workbench.modrep import (COMMUTANT_DIM_CAP, SPLIT_TRIES, EndAlgebra, endomorphism_basis,
                              hom_space)
from workbench.perm import conj, identity, inverse, mul


def psl2_degree_multiset(q: int) -> list:
    """Ordinary character degrees of PSL(2,q), q odd, from the classical
    parametrization of its table (principal/discrete series plus the split
    cuspidal pair)."""
    if q % 4 == 3:
        degs = [1, (q - 1) // 2, (q - 1) // 2, q]
        degs += [q - 1] * ((q - 3) // 4)
        degs += [q + 1] * ((q - 3) // 4)
    elif q % 4 == 1:
        degs = [1, (q + 1) // 2, (q + 1) // 2, q]
        degs += [q - 1] * ((q - 1) // 4)
        degs += [q + 1] * ((q - 5) // 4)
    else:
        raise ValueError("q must be odd")
    order = q * (q * q - 1) // 2
    assert sum(d * d for d in degs) == order
    return sorted(degs)


class GF2m:
    """An element of GF(2^f), with the field operations as + and *."""

    __slots__ = ("f", "value")

    def __init__(self, f: int, value: int):
        self.f = f
        self.value = value

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other and other in (0, 1)
        return isinstance(other, GF2m) and (self.f, self.value) == (other.f, other.value)

    def __hash__(self):
        return hash((self.f, self.value))

    def __add__(self, other):
        self._check(other)
        return GF2m(self.f, self.value ^ other.value)

    def __mul__(self, other):
        self._check(other)
        return GF2m(self.f, GF2Field(self.f).mul(self.value, other.value))

    def _check(self, other):
        if not isinstance(other, GF2m) or other.f != self.f:
            raise TypeError("mixed GF(2^f) fields")

    def __repr__(self):
        return f"GF2m(f={self.f}, {self.value:#x})"


class Cyclotomic(cyclotomic.Cyclotomic):
    """The package's reported value with exact field arithmetic: sums,
    products and equality after lifting to a common conductor, and the
    Galois action."""

    __slots__ = ()

    @classmethod
    def rational(cls, value) -> "Cyclotomic":
        return cls(1, [Fraction(value)])

    @classmethod
    def root(cls, e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k."""
        return cls(e, _power_table(e)[k % e])

    def lift(self, E: int) -> "Cyclotomic":
        if E == self.e:
            return self
        if E % self.e:
            raise ValueError("can only lift to a multiple of the conductor")
        step = E // self.e
        tab = _power_table(E)
        acc = [Fraction(0)] * _phi_degree(E)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, t in enumerate(tab[(i * step) % E]):
                    if t:
                        acc[j] += c * t
        return Cyclotomic(E, acc)

    @staticmethod
    def _common(a, b):
        a, b = _coerce(a), _coerce(b)
        E = a.e * b.e // gcd(a.e, b.e)
        return a.lift(E), b.lift(E)

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._common(self, other)
        return Cyclotomic(a.e, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.e, [-c for c in self.coeffs])

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Cyclotomic":
        a, b = self._common(self, other)
        deg = _phi_degree(a.e)
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        tab = _power_table(a.e)
        acc = [Fraction(0)] * deg
        for m, c in enumerate(conv):
            if c:
                for k, t in enumerate(tab[m]):
                    if t:
                        acc[k] += c * t
        return Cyclotomic(a.e, acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def galois(self, r: int) -> "Cyclotomic":
        """Apply sigma_r: zeta_e -> zeta_e^r (gcd(r, e) = 1)."""
        e = self.e
        if gcd(r, e) != 1:
            raise ValueError("galois exponent must be prime to the conductor")
        counts = {}
        for i, c in enumerate(self.coeffs):
            counts[r * i % e] = counts.get(r * i % e, 0) + c
        return Cyclotomic(e, power_coords(e, counts))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.coeffs[0]


def _coerce(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, cyclotomic.Cyclotomic):
        return Cyclotomic(value.e, value.coeffs)
    return Cyclotomic.rational(value)


@lru_cache(maxsize=8)
def exact_chars(table) -> list:
    """The table's reported values (`table.chars`) as oracle `Cyclotomic`s."""
    return [tuple(map(_coerce, row)) for row in table.chars]


def exact_reduce_mod2(value: Cyclotomic, f: int | None = None) -> GF2m:
    """Image of a 2-integral Fraction-coefficient value under the pinned
    ring map O_(2) -> GF(2^f): zeta of 2-power order maps to 1, zeta of odd
    order e' to the pinned primitive e'-th root of GF(2^f)*, and each odd
    denominator to 1.  f defaults to the multiplicative order of 2 mod e',
    and must be a multiple of it."""
    e = value.e
    a = 0
    eodd = e
    while eodd % 2 == 0:
        eodd //= 2
        a += 1
    f0 = multiplicative_order_of_2(eodd)
    if f is None:
        f = f0
    if f % f0:
        raise ValueError(f"field degree {f} incompatible with order {eodd}")
    field = GF2Field(f)
    if eodd == 1:
        eta = 1
    else:
        omega = field.root_of_unity(eodd)
        eta = field.pow(omega, pow(2, -a, eodd) if a else 1)
    acc = 0
    power = 1
    for c in value.coeffs:
        if c and c.denominator % 2 == 0:
            raise NotTwoIntegral(f"even denominator in {value!r}")
        if c and c.numerator % 2:
            acc ^= power
        power = field.mul(power, eta)
    return GF2m(f, acc)


def minimized(value: Cyclotomic) -> Cyclotomic:
    """`value` in its least conductor: descend one prime q at a time while
    every Galois automorphism over Q(zeta_(e/q)) fixes the exact value."""
    cur = value
    changed = True
    while changed:
        changed = False
        e = cur.e
        for q in prime_divisors(e):
            low = e // q
            if all(cur.galois(r) == cur for r in range(2, e)
                   if r % low == 1 % low and gcd(r, e) == 1):
                cur = cur.rewrite(low)
                changed = True
                break
    return cur


def exact_central_characters(table) -> tuple:
    """(f, rows): f the lcm of ord_2 over the odd parts of the class orders,
    and per character the vector omega(C_j) = |C_j| chi(g_j) / chi(1)
    reduced into GF(2^f), from the exact values (independent of
    workbench.blocks)."""
    f = 1
    for c in table.classes:
        m = c.order
        while m % 2 == 0:
            m //= 2
        o = multiplicative_order_of_2(m)
        f = f * o // gcd(f, o)
    chars = exact_chars(table)
    rows = [tuple(exact_reduce_mod2(chars[i][j] * Fraction(len(c.members), table.degrees[i]),
                                    f).value
                  for j, c in enumerate(table.classes))
            for i in range(table.k)]
    return f, rows


def brute_force_block_partition(table) -> list:
    """Partition Irr(G) by equality of reduced central characters, computed
    directly from the definition."""
    blocks = {}
    for i, v in enumerate(exact_central_characters(table)[1]):
        blocks.setdefault(v, []).append(i)
    return sorted(blocks.values())


def exact_block_idempotent(table, rows, f: int) -> list:
    """e_B per class: (1/|G|) sum over rows of chi(1) chi(g_j^-1), summed in
    Q(zeta_n) and reduced into GF(2^f)."""
    chars = exact_chars(table)
    out = []
    for j in range(table.k):
        jinv = table.inverse_map[j]
        total = Cyclotomic.rational(0)
        for i in rows:
            total = total + chars[i][jinv] * table.degrees[i]
        out.append(exact_reduce_mod2(total * Fraction(1, table.group.order), f).value)
    return out


def signed_sum_solutions(m: int, d: int) -> list:
    """All sign tuples (e_0..e_{d-1}) with sum e_j 2^j = m, by exhaustion."""
    out = []
    for mask in range(1 << d):
        total = sum((1 if (mask >> j) & 1 else -1) * (1 << j) for j in range(d))
        if total == m:
            out.append(tuple(1 if (mask >> j) & 1 else -1 for j in range(d)))
    return out


def matrix_minpoly(rows, n: int) -> int:
    """Minimal polynomial (bit i = coefficient of x^i) of the n x n GF(2)
    matrix with int rows `rows`, from the first linear relation among its
    powers I, A, A^2, ... written out as n*n-bit vectors."""
    def times_a(cur):
        out = []
        for r in cur:
            acc = 0
            for j in range(n):
                if (r >> j) & 1:
                    acc ^= rows[j]
            out.append(acc)
        return out

    basis = []  # (vector, combination of powers), by descending top bit
    cur = [1 << i for i in range(n)]
    for k in range(n * n + 1):
        v = sum(r << (i * n) for i, r in enumerate(cur))
        combo = 1 << k
        for b, c in basis:
            if v ^ b < v:
                v ^= b
                combo ^= c
        if v == 0:
            return combo
        basis.append((v, combo))
        basis.sort(reverse=True)
        cur = times_a(cur)
    raise ValueError("no relation among the powers")


def enumerate_sign_assignments(type_id: str, etype: str, d: int,
                               tiebreak: bool = True) -> list:
    """`solver.solve` by exhaustion: every family vector in {+-1}^(d-2)
    (eps^(d-3) = 0 for type (e)) for every admissible duality, checked
    against the full constraint list with both column scales free."""
    from itertools import product

    from workbench import solver

    profile = solver.build_profile(type_id, d)
    if etype == "principal":
        etype = "a"
    if etype == "e" and d < 4:
        return []
    if etype in ("c", "d") and profile.l == 2:
        return []
    fam_zero = {d - 3} if etype == "e" else set()
    nonreal_subsection = solver._nonreal_subsection(etype, profile.l, d)
    cons = solver.local_constraints(etype, profile, tiebreak=tiebreak)
    solutions = {}
    for tau, sigma in solver._admissible_dualities(type_id):
        if solver._moved(tau) + sum((1 << j) for j in fam_zero) != \
                nonreal_subsection + solver._moved(sigma):
            continue
        eps = tuple(0 if tau[i] != i else 1 for i in range(4))
        fam_domains = [(0,) if j in fam_zero else (1, -1) for j in range(d - 2)]
        for fam in product(*fam_domains):
            if any(all(c.fn({"eps": eps, "fam": fam,
                             "epsilon": e1, "eps_top": e2}) for c in cons)
                   for e1 in (1, -1) for e2 in (1, -1)):
                solver._record(solutions, profile, eps, fam)
    return [solutions[k] for k in sorted(solutions)]


def all_elements_subpair_reality(ext, Q) -> tuple:
    """(real?, strongly real?) of the subpair at Q, a subgroup name or a list
    of normal forms (k, eps), with C_E(Q) found by testing commutation with
    every element of Q: real when |D| |C_E(Q)| / |C_D(Q)| = |E|, strongly
    real when C_E(Q) holds an involution outside D."""
    qs = [y + (0,) for y in (ext.named_subgroup(Q) if isinstance(Q, str) else Q)]
    C = [g for g in ext.points if all(ext.mul(g, y) == ext.mul(y, g) for y in qs)]
    inter = sum(1 for g in C if not g[2])
    real = ext.frame.order * len(C) // inter == len(ext.points)
    strong = any(g[2] and ext.mul(g, g) == (0, 0, 0) for g in C)
    return real, strong


def abstract_fingerprint(G) -> tuple:
    """(|G|, #{g^2 = 1}, exponent, |Z|, |G'|) from the engine's classes, with
    G' the subgroup generated by the classes of the generators' commutators."""
    classes = G.conjugacy_classes()
    comms = {G.class_of[G.idx(mul(mul(inverse(g), inverse(h)), mul(g, h)))]
             for g in G.generators for h in G.generators}
    derived = G.subgroup([G.elements[m] for c in sorted(comms) for m in classes[c].members])
    return (G.order, len(G.involution_indices()), G.exponent(),
            sum(1 for c in classes if c.size() == 1), derived.order)


def relative_fingerprint(E, D_set, D_gens) -> tuple:
    """The abstract fingerprint of E, plus: does some involution in E - D
    centralize D?  Read off the engine's centralizer of D's generators."""
    ident = identity(E.degree)
    central = any(x not in D_set and mul(x, x) == ident
                  for x in E.centralizer(*D_gens).elements)
    return abstract_fingerprint(E) + (central,)


def _order_by_powers(p) -> int:
    """Element order by multiplying p into itself until the identity."""
    from workbench.perm import identity, mul

    n, q, ident = 1, p, identity(len(p))
    while q != ident:
        q = mul(q, p)
        n += 1
    return n


def tuple_closure(generators, degree: int) -> tuple:
    """The closure keyed by tuples, with one `perm.mul` per product:
    (sorted elements, index, rights, tree).  rights[k] is the row
    x -> x·g_k; tree holds the rows x, parent(x) and k with
    x = parent(x)·g_k, in BFS order."""
    from workbench.perm import identity, mul

    ident = identity(degree)
    pos, found, prods, parent, letter = {ident: 0}, [ident], [], [0], [0]
    for b, p in enumerate(found):
        for k, g in enumerate(generators):
            q = mul(p, g)
            if q not in pos:
                pos[q] = len(found)
                found.append(q)
                parent.append(b)
                letter.append(k)
            prods.append(pos[q])
    elements = sorted(found)
    index = {p: i for i, p in enumerate(elements)}
    rank = [index[p] for p in found]
    ng = len(generators)
    rights = [[rank[prods[pos[p] * ng + k]] for p in elements] for k in range(ng)]
    return elements, index, rights, (rank[1:], [rank[b] for b in parent[1:]], letter[1:])


def tree_walk(tree, actions, start: int, order: int) -> list:
    """One step per element down the BFS tree: row[p·g_k] = actions[k][row[p]]."""
    row = [start] * order
    for x, p, k in zip(*tree):
        row[x] = actions[k][row[p]]
    return row


def normalizer_ascent_sylow2(G):
    """A Sylow 2-subgroup of G by whole-normalizer ascent: start at the first
    2-element, then adjoin the first 2-element outside P of the sorted
    normalizer N_G(P), computed by conjugating all of P by every element."""
    from workbench.perm import conj, nu

    def two_element(p):
        o = _order_by_powers(p)
        return o > 1 and o & (o - 1) == 0

    target = 1 << nu(G.order)
    if target == 1:
        return G.subgroup([])
    elements = list(map(tuple, G.elements))
    P = G.subgroup([next(p for p in elements if two_element(p))])
    while P.order < target:
        members = set(map(tuple, P.elements))
        norm = [x for x in elements if all(conj(s, x) in members for s in members)]
        P = G.subgroup(P.generators + [next(y for y in norm if y not in members
                                            and two_element(y))])
    return P


def conjugate_intersection_o2_core(G) -> frozenset:
    """O_2(G) as the intersection of all G-conjugates of a Sylow 2-subgroup."""
    from workbench.perm import conj

    syl = list(map(tuple, normalizer_ascent_sylow2(G).elements))
    core = frozenset(syl)
    for g in G.elements:
        core &= frozenset(conj(s, g) for s in syl)
    return core


def structure_constants(G, classes) -> list:
    """a[i][j][l] = #{(x, y) in C_i x C_j : xy = g_l}, by brute force over
    all pairs of elements (g_l the representative of class l)."""
    k = len(classes)
    rep_class = {c.rep: l for l, c in enumerate(classes)}
    cls = G.class_of
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for x, px in enumerate(G.elements):
        for y, py in enumerate(G.elements):
            l = rep_class.get(G.idx(mul(px, py)))
            if l is not None:
                a[cls[x]][cls[y]][l] += 1
    return a


def brute_force_roots(f, p: int) -> list:
    """The x in GF(p) with f(x) = 0 (f's coefficients lowest first), by
    evaluating f at every x."""
    return [x for x in range(p) if reduce(lambda acc, c: (acc * x + c) % p, reversed(f), 0) == 0]


def idempotent_square_check(table, coeffs) -> bool:
    """(sum a_C C+)^2 = sum a_C C+ in Z(kG), via structure constants mod 2."""
    k = table.k
    F = GF2Field(omega_field(table.classes))
    const = structure_constants(table.group, table.classes)
    sq = [0] * k
    for i in range(k):
        for j in range(k):
            prod = F.mul(coeffs[i], coeffs[j])
            if prod:
                for l in range(k):
                    if const[i][j][l] % 2:
                        sq[l] ^= prod
    return sq == list(coeffs)


def inner_product(table, i: int, l: int) -> Fraction:
    """<chi_i, chi_l> = (1/|G|) sum_j |C_j| chi_i(g_j) conj(chi_l(g_j)), exactly."""
    chars = exact_chars(table)
    total = Cyclotomic.rational(0)
    for j, c in enumerate(table.classes):
        total = total + len(c.members) * (chars[i][j] * chars[l][j].galois(-1))
    return (total * Fraction(1, table.group.order)).rational_value()


# Exact routes to the integer-valued invariants: Cyclotomic sums and equality
# on the lifted values, where the table decides them mod its Dixon prime.

def exact_fs_indicator(table, i: int) -> Fraction:
    """(1/|G|) sum_j |C_j| chi_i(g_j^2), summed in Q(zeta_n)."""
    chars = exact_chars(table)
    total = Cyclotomic.rational(0)
    for j, c in enumerate(table.classes):
        total = total + len(c.members) * chars[i][table.powermap2[j]]
    return (total * Fraction(1, table.group.order)).rational_value()


def _galois_image_row(table, values) -> int:
    """The one row of the table whose exact values are `values`."""
    rows = [l for l in range(table.k)
            if all(a == b for a, b in zip(exact_chars(table)[l], values))]
    if len(rows) != 1:
        raise ValueError(f"{len(rows)} rows match a Galois image")
    return rows[0]


def exact_conj_char(table, i: int) -> int:
    """Row of the complex conjugate, matched value by value."""
    return _galois_image_row(table, [v.galois(-1) for v in exact_chars(table)[i]])


def two_galois_exponents(G) -> list:
    """r prime to exp(G) with r = 1 mod its odd part: sigma_r fixes every
    odd-order root of unity."""
    n = G.exponent()
    m = n
    while m % 2 == 0:
        m //= 2
    return [r for r in range(1, n + 1) if gcd(r, n) == 1 and (r - 1) % m == 0]


def exact_is_two_rational(table, i: int) -> bool:
    return all(v.galois(r) == v for r in two_galois_exponents(table.group)
               for v in exact_chars(table)[i])


def exact_two_conjugacy_families(table, rows) -> list:
    rows = list(rows)
    exps = two_galois_exponents(table.group)
    fams, seen = [], set()
    for i in rows:
        if i in seen:
            continue
        orbit = {_galois_image_row(table, [v.galois(r) for v in exact_chars(table)[i]])
                 for r in exps} & set(rows)
        fams.append(tuple(sorted(orbit)))
        seen |= orbit
    return fams


# ---------------------------------------------------------------------------
# permutation modules
# ---------------------------------------------------------------------------

def conjugation_action_is_homomorphism(module, G, labels) -> bool:
    """Whether module.mats[i] * module.mats[j] = rho(g_i g_j) for every
    ordered pair of generators of G, and module.mats[i] = rho(g_i), with
    rho(x) the matrix of x acting by conjugation on the elements with
    indices `labels` (row lab has its 1 at lab^x), built here from the
    elements themselves."""
    pos = {lab: n for n, lab in enumerate(labels)}

    def rho(x):
        return BitMatrix([1 << pos[G.idx(conj(G.elements[lab], x))] for lab in labels],
                         len(labels))

    gens, mats = G.generators, module.mats
    return len(mats) == len(gens) and all(a == rho(g) for a, g in zip(mats, gens)) and all(
        mats[i] * mats[j] == rho(mul(g, h))
        for i, g in enumerate(gens) for j, h in enumerate(gens))


def pair_orbitals(module) -> list:
    """G-orbits on pairs of points, by a search over the pairs themselves:
    [(i0, j0, adjacency BitMatrix)] with (i0, j0) the first pair of each
    orbital in row-major order, each pair reached once per generator."""
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
    return out


# ---------------------------------------------------------------------------
# the d x d matrix route of the summand split and of summand isomorphism
# ---------------------------------------------------------------------------

def chopped_corner_is_local(H, f: int, corner: Echelon, seed=0) -> bool:
    """Certificate that fHf is local from the composition factors of its
    right-regular module: fHf is local iff that module has a single simple
    constituent S up to isomorphism, with dim S = dim End(S).  The module is
    written in the corner's basis, with right multiplication by each basis
    element as a generator; `chop` gives one object per isomorphism class,
    and dim End(S) is `hom_space`'s."""
    m = len(corner)
    if m == 1:
        return True  # fHf = k*f
    mats = [restrict(corner, (H.mul(x, b) for x in corner.vectors), "corner")
            for b in corner.vectors]
    S, *others = chop(mats, m, seed=seed)
    return S.dim == len(hom_space(S, S)) and all(T is S for T in others)


def matrix_inverse(M: BitMatrix) -> BitMatrix:
    """The inverse of a square GF(2) matrix: row j holds the coordinates of
    e_j over M's rows."""
    if M.nrows != M.ncols:
        raise ValueError("not square")
    ech = Echelon(M.rows, M.ncols)
    if len(ech) < M.nrows:
        raise ZeroDivisionError("matrix not invertible")
    return BitMatrix([ech.solve(1 << j) for j in range(M.ncols)], M.nrows)


class MatrixModule:
    """A module given by its generators' action matrices alone.  It has no
    orbitals, so `modrep.endomorphism_basis` reads its End only once one is
    set as `endo` (`hom_space_endomorphisms`)."""
    perms = None

    def __init__(self, mats, dim):
        self.mats = mats
        self.dim = dim
        self.endo = None


def dual_module(module) -> MatrixModule:
    """The contragredient module: g acts by rho(g^-1)^T."""
    return MatrixModule([matrix_inverse(m).transpose() for m in module.mats], module.dim)


def hom_space_endomorphisms(module) -> EndAlgebra:
    """End_kG(M) for a module with neither orbitals nor a cut algebra: a
    basis from `hom_space`, and the structure constants from the products
    of it, up to dim COMMUTANT_DIM_CAP."""
    if module.dim > COMMUTANT_DIM_CAP:
        raise CapExceeded(f"generic commutant solve capped at dim {COMMUTANT_DIM_CAP}")
    basis = hom_space(module, module)
    flat = Echelon(map(_flatten, basis), module.dim ** 2)
    products = [restrict(flat, (_flatten(x * y) for y in basis)) for x in basis]
    one = restrict(flat, [_flatten(BitMatrix.identity(module.dim))])
    return EndAlgebra(module, basis, products, one.rows[0])


def _image(H, f) -> tuple:
    """(M*f as a module of its own, its basis) for an idempotent f of the
    `EndAlgebra` H of M: the reduced row space of f's matrix, with M's
    matrices restricted to it."""
    ech = Echelon(H.matrix(f).rows).reduced_basis(H.module.dim)
    mats = [restrict(ech, map(m.mul_vec, ech.vectors)) for m in H.module.mats]
    return MatrixModule(mats, len(ech)), ech


def summand_module(summand) -> MatrixModule:
    """A module fM (a block cut or a summand) with action matrices
    restricted from M's own."""
    return _image(summand.endo, summand.idempotent)[0]


def corner_action(H, f: int, x: int) -> BitMatrix:
    """The matrix of x in fHf on fM, in the basis of `summand_module`."""
    ech = _image(H, f)[1]
    return restrict(ech, map(H.matrix(x).mul_vec, ech.vectors))


def bit_loop_mul_vec(M: BitMatrix, v: int) -> int:
    """v*M, the rows picked by a Python loop over v's set bits: the route
    of `BitMatrix.mul_vec` below DENSE_BITS set bits, at every density."""
    acc, rows = 0, M.rows
    while v:
        low = v & -v
        acc ^= rows[low.bit_length() - 1]
        v ^= low
    return acc


def bitwise_quotient(mats, dim: int, ech: Echelon) -> list:
    """`meataxe.quotient` with the projection onto the free columns made
    bit by bit."""
    free = [c for c in range(dim) if not (ech.pivots >> c) & 1]

    def project(v):
        v = ech.reduce(v)
        return sum(((v >> c) & 1) << n for n, c in enumerate(free))

    return [BitMatrix([project(m.mul_vec(1 << c)) for c in free], len(free)) for m in mats]


def matrix_span_action(ech: Echelon, module) -> list:
    """The generators' action on a stable span of a module, each basis
    vector moved by the generators' matrices (for a permutation module,
    its permutation matrices)."""
    return [restrict(ech, map(partial(bit_loop_mul_vec, m), ech.vectors)) for m in module.mats]


def _flatten(mat: BitMatrix) -> int:
    return sum(r << (i * mat.ncols) for i, r in enumerate(mat.rows))


def _independent(mats) -> list:
    """The matrices that enlarge the span of those before them."""
    flat = Echelon()
    return [m for m in mats if flat.add(_flatten(m))]


def _some_invertible(homs, dim: int) -> bool:
    """Whether some sum of the homs has full rank, by exhaustion."""
    if len(homs) > 16:
        raise ValueError("hom space too large to enumerate")
    return any(reduce(add, (h for t, h in enumerate(homs) if mask >> t & 1)).rank() == dim
               for mask in range(1, 1 << len(homs)))


def modules_isomorphic(m1, m2) -> bool:
    """Explicit isomorphism search through the hom space."""
    return m1.dim == m2.dim and (m1.dim == 0 or _some_invertible(hom_space(m1, m2), m1.dim))


class _Piece:
    """A direct summand P of M in its own coordinates: `basis` holds P's
    basis as the rows of a d x n matrix in M's coordinates, `mats` the
    action on P (d x d), and `corner` a basis of End_kG(P) (d x d)."""

    def __init__(self, basis: BitMatrix, mats, corner):
        self.basis = basis
        self.mats = mats
        self.corner = corner

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def minpoly(self, a: BitMatrix) -> int:
        """The lcm of the local minimal polynomials of a on a set of
        kG-generators of P (a commutes with G)."""
        gens, span = [], Echelon()
        for i in range(self.dim):
            if span.reduce(1 << i):
                gens.append(1 << i)
                span = spin(gens, self.mats, self.dim)
        m = 1
        for w in gens:
            m = poly_lcm(m, krylov_relation(w, a.mul_vec, self.dim))
        return m

    def split(self, k: BitMatrix) -> list:
        """[kP, (1 + k)P] for an idempotent k of the corner."""
        out = []
        for e in (k, k + BitMatrix.identity(self.dim)):
            sub = Echelon(e.rows).reduced_basis(self.dim)
            vecs = sub.vectors
            corner = _independent(
                restrict(sub, (e.mul_vec(b.mul_vec(v)) for v in vecs)) for b in self.corner)
            mats = [restrict(sub, map(m.mul_vec, vecs)) for m in self.mats]
            out.append(_Piece(BitMatrix(vecs, self.dim) * self.basis, mats, corner))
        return out


def _proper_corner_idempotent(a: BitMatrix, piece: _Piece):
    """An idempotent k with 0 != k != 1 in GF(2)[a], if one exists: the
    kernel of q -> q^2 + q on GF(2)[x]/(m)."""
    m = piece.minpoly(a)
    deg = m.bit_length() - 1
    rows = [poly_mulmod(1 << i, 1 << i, m) ^ (1 << i) for i in range(deg)]
    one = BitMatrix.identity(piece.dim)
    for q in BitMatrix(rows, deg).kernel() if deg >= 2 else ():
        cand = eval_poly(a, q)
        if not cand.is_zero() and cand != one:
            assert cand * cand == cand
            return cand
    return None


def matrix_route_summands(module, seed=0) -> list:
    """[(dim, multiplicity)] of the summands of M, sorted as `group_summands`
    sorts them, by the d x d route: random corner elements of End(M) written
    as d x d matrices split M until SPLIT_TRIES draws find no idempotent,
    and two pieces are isomorphic when some hom v -> v*a*f between them,
    for a in End(M), is invertible."""
    H = endomorphism_basis(module)
    top, ech = _image(H, H.one)
    endo = _independent(restrict(ech, map(B.mul_vec, ech.vectors)) for B in H.mats)
    rng = random.Random(seed)
    work, pieces = [_Piece(BitMatrix.identity(top.dim), top.mats, endo)], []
    while work:
        piece = work.pop()
        for _ in range(SPLIT_TRIES if len(piece.corner) > 1 else 0):
            mask = rng.getrandbits(len(piece.corner))
            a = reduce(add, (b for t, b in enumerate(piece.corner) if mask >> t & 1),
                       BitMatrix.zero(piece.dim, piece.dim))
            k = _proper_corner_idempotent(a, piece)
            if k is not None:
                work += piece.split(k)
                break
        else:
            pieces.append(piece)
    split = Echelon((v for p in pieces for v in p.basis.rows), module.dim)
    offsets = list(accumulate((p.dim for p in pieces), initial=0))

    def homs(i, j):  # Hom(P_i, P_j): the P_j part of v*a, from the split coordinates
        low = (1 << pieces[j].dim) - 1
        return _independent(
            BitMatrix([split.solve(a.mul_vec(v)) >> offsets[j] & low
                       for v in pieces[i].basis.rows], pieces[j].dim)
            for a in endo)

    classes = []
    for i, p in enumerate(pieces):
        for entry in classes:
            if pieces[entry[0]].dim == p.dim and _some_invertible(homs(entry[0], i), p.dim):
                entry[1] += 1
                break
        else:
            classes.append([i, 1])
    return sorted(((pieces[i].dim, m) for i, m in classes), key=lambda e: (e[0], -e[1]))


ISOMORPHISM_TRIES = 60


def constituent_fingerprint(c) -> tuple:
    """Ranks that an isomorphism preserves: of g + 1 for each generator g,
    and of w + 1, w*g_0 + 1 for w = g_0 g_1."""
    ident = BitMatrix.identity(c.dim)
    ranks = [(m + ident).rank() for m in c.mats]
    extra = []
    if len(c.mats) >= 2:
        w = c.mats[0] * c.mats[1]
        extra.append((w + ident).rank())
        extra.append((w * c.mats[0] + ident).rank())
    return (c.dim, tuple(ranks), tuple(extra))


def standard_rep(mats, w):
    """Spin w with a fixed schedule; return the dependency shape and the
    per-generator matrices in the canonical spin basis."""
    ech = Echelon([w], mats[0].nrows)
    shape = []
    i = 0
    while i < len(ech):
        for gi, m in enumerate(mats):
            shape.append((i, gi, ech.add(m.mul_vec(ech.vectors[i]))))
        i += 1
    reps = [restrict(ech, map(m.mul_vec, ech.vectors)) for m in mats]
    return tuple(shape), reps, len(ech)


def isomorphic_irreducibles(c1, c2, seed=0) -> bool:
    """Isomorphism test for two irreducible modules by standard bases: the
    same random word's kernel in both, each kernel vector of the second
    spun and compared with the first's spin, up to ISOMORPHISM_TRIES words."""
    if c1.dim != c2.dim or len(c1.mats) != len(c2.mats):
        return False
    if c1.dim == 0:
        return True
    if constituent_fingerprint(c1) != constituent_fingerprint(c2):
        return False
    rng = random.Random(seed)
    for _try in range(ISOMORPHISM_TRIES):
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
        shape1, reps1, n1 = standard_rep(c1.mats, k1[0])
        if n1 != c1.dim:
            continue  # not actually irreducible-spanning from this vector
        # try every nonzero kernel vector on the other side
        for mask in range(1, 1 << len(k2)):
            w2 = 0
            for t in range(len(k2)):
                if (mask >> t) & 1:
                    w2 ^= k2[t]
            shape2, reps2, n2 = standard_rep(c2.mats, w2)
            if n2 == c2.dim and shape1 == shape2 and reps1 == reps2:
                return True
        return False
    raise InvariantViolation(
        f"isomorphism test inconclusive after {ISOMORPHISM_TRIES} tries")


def _random_algebra_element(mats, rng) -> BitMatrix:
    """A random word of the MeatAxe's kind, evaluated on mats."""
    return meataxe._evaluate(meataxe._random_word(len(mats), rng), mats)
