"""Independent test oracles (kept apart from the package under test)."""

from fractions import Fraction
from math import gcd

from workbench.blocks import omega_field
from workbench.cyclotomic import Cyclotomic
from workbench.gf2 import GF2Field
from workbench.perm import mul


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


def brute_force_block_partition(table) -> list:
    """Partition Irr(G) by equality of reduced central characters, computed
    directly from the definition (independent of workbench.blocks)."""
    from workbench.gf2 import multiplicative_order_of_2

    k = table.k
    f = 1
    for c in table.classes:
        m = c.order
        while m % 2 == 0:
            m //= 2
        o = multiplicative_order_of_2(m)
        f = f * o // __import__("math").gcd(f, o)
    vectors = []
    for i in range(k):
        vec = []
        for j, c in enumerate(table.classes):
            val = table.chars[i][j] * Fraction(len(c.members), table.degrees[i])
            vec.append(val.reduce_mod2(f).value)
        vectors.append(tuple(vec))
    blocks = {}
    for i, v in enumerate(vectors):
        blocks.setdefault(v, []).append(i)
    return sorted(blocks.values())


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


def named_subgroup_gens(ext, name: str) -> list:
    """Generators, as permutations in E, of one of 1, S_i, S, X_i, Y_i, D
    from their definitions S_i = <s_i>, X_i = <s_(i-1), t>,
    Y_i = <s_(i-1), st>, with s_i = s^(2^(d-1-i)) and X_1 = <t>, Y_1 = <st>."""
    d = ext.frame.d

    def s_i(i):
        return (1 << (d - 1 - i), 0, 0)

    if name == "1":
        gens = []
    elif name == "D":
        gens = [(1, 0, 0), (0, 1, 0)]
    elif name == "S":
        gens = [(1, 0, 0)]
    elif name.startswith("S_"):
        gens = [s_i(int(name[2:]))]
    else:
        i = int(name[2:])
        top = (0, 1, 0) if name[0] == "X" else (1, 1, 0)
        gens = [top] if i == 1 else [s_i(i - 1), top]
    return [ext.perm(g) for g in gens]


def _order_by_powers(p) -> int:
    """Element order by multiplying p into itself until the identity."""
    from workbench.perm import identity, mul

    n, q, ident = 1, p, identity(len(p))
    while q != ident:
        q = mul(q, p)
        n += 1
    return n


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
    P = G.subgroup([next(p for p in G.elements if two_element(p))])
    while P.order < target:
        members = set(P.elements)
        norm = [x for x in G.elements if all(conj(s, x) in members for s in members)]
        P = G.subgroup(P.generators + [next(y for y in norm if y not in members
                                            and two_element(y))])
    return P


def conjugate_intersection_o2_core(G) -> frozenset:
    """O_2(G) as the intersection of all G-conjugates of a Sylow 2-subgroup."""
    from workbench.perm import conj

    syl = normalizer_ascent_sylow2(G).elements
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


def idempotent_square_check(table, coeffs) -> bool:
    """(sum a_C C+)^2 = sum a_C C+ in Z(kG), via structure constants mod 2."""
    k = table.k
    F = GF2Field(omega_field(table))
    const = structure_constants(table.group, table.classes)
    sq = [0] * k
    for i in range(k):
        for j in range(k):
            prod = F.mul(coeffs[i], coeffs[j])
            if prod:
                for l in range(k):
                    if const[i][j][l] % 2:
                        sq[l] = F.add(sq[l], prod)
    return sq == list(coeffs)


def inner_product(table, i: int, l: int) -> Fraction:
    """<chi_i, chi_l> = (1/|G|) sum_j |C_j| chi_i(g_j) conj(chi_l(g_j)), exactly."""
    total = Cyclotomic.rational(0)
    for j, c in enumerate(table.classes):
        total = total + len(c.members) * (table.chars[i][j] * table.chars[l][j].galois(-1))
    return (total * Fraction(1, table.group.order)).rational_value()


# Exact routes to the integer-valued invariants: Cyclotomic sums and equality
# on the lifted values, where the table decides them mod its Dixon prime.

def exact_fs_indicator(table, i: int) -> Fraction:
    """(1/|G|) sum_j |C_j| chi_i(g_j^2), summed in Q(zeta_n)."""
    total = Cyclotomic.rational(0)
    for j, c in enumerate(table.classes):
        total = total + len(c.members) * table.chars[i][table.powermap2[j]]
    return (total * Fraction(1, table.group.order)).rational_value()


def _galois_image_row(table, values) -> int:
    """The one row of the table whose exact values are `values`."""
    rows = [l for l in range(table.k)
            if all(a == b for a, b in zip(table.chars[l], values))]
    if len(rows) != 1:
        raise ValueError(f"{len(rows)} rows match a Galois image")
    return rows[0]


def exact_conj_char(table, i: int) -> int:
    """Row of the complex conjugate, matched value by value."""
    return _galois_image_row(table, [v.galois(-1) for v in table.chars[i]])


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
               for v in table.chars[i])


def exact_two_conjugacy_families(table, rows) -> list:
    rows = list(rows)
    exps = two_galois_exponents(table.group)
    fams, seen = [], set()
    for i in rows:
        if i in seen:
            continue
        orbit = {_galois_image_row(table, [v.galois(r) for v in table.chars[i]])
                 for r in exps} & set(rows)
        fams.append(tuple(sorted(orbit)))
        seen |= orbit
    return fams
