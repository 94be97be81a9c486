"""Exact ordinary character tables via Dixon's method.

Class-algebra structure constants are diagonalized over GF(p) for a prime
p = 1 mod exp(G) (least such prime above 4*sqrt|G|), so every class matrix
splits over GF(p): its eigenvalues are the roots of the squarefree part
f / gcd(f, f') of its characteristic polynomial (Cantor–Zassenhaus), a
simple root's line is read off one Krylov basis per space, and `linalg`
does the rest.  Orthogonality gives d^2 mod p for each degree d, and since
p > 4*sqrt|G| + 1 exactly one d <= sqrt|G| fits.
Values are lifted exactly to Z[zeta_n] from eigenvalue multiplicities, as
int power-basis tuples, for the report and the 2-modular reduction: one
multiplicity per orbit of the s prime to n with g^s conjugate to g, which
all share it.  The integer-valued invariants (FS indicators, complex
conjugates, 2-rationality) are decided from the rows chi mod p, which the
table keeps beside the exact values.

A class matrix M_i (the structure constants a_ijl mod p) is built only when
the eigenspace loop takes class i, from one left row y -> g_i·y of the
group's index tables (Dixon–Schneider), left in the closure's slot order:
the pairs (class of y, class of g_i·y) are counted at each class's member
slots.  The loop takes high element orders first and stops once every
eigenspace is a line, so most classes never build theirs; a space on which
M_i acts as a scalar (checked exactly mod p) is kept with no eigenspace
search.  The class of every power of every representative comes from
`PermGroup.powers` (no tuple products up to degree 256) and is kept on the
table for the power maps.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, isqrt
from operator import mul

from . import linalg
from .cyclotomic import Cyclotomic, power_coords, prime_divisors
from .errors import CapExceeded, InvariantViolation, NonIndicatorValue
from .perm import PermGroup

CLASS_CAP = 60


# ---------------------------------------------------------------------------
# mod-p helpers
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def _dixon_prime(exponent: int, order: int) -> int:
    bound = 4 * isqrt(order) + 1
    p = exponent + 1
    while p <= bound or not _is_prime(p):
        p += exponent
    return p


def _primitive_root(p: int) -> int:
    factors = prime_divisors(p - 1)
    for z in range(2, p):
        if all(pow(z, (p - 1) // q, p) != 1 for q in factors):
            return z
    raise InvariantViolation(f"no primitive root mod {p}")


def _poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_mul_modp(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_mod(f, m, p):
    f = f[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(f) - 1 >= dm and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] * inv_lead % p
        shift = len(f) - 1 - dm
        for j in range(len(m)):
            f[shift + j] = (f[shift + j] - c * m[j]) % p
        f.pop()
    return _poly_trim(f if f else [0])


def _poly_gcd_modp(f, g, p):
    f, g = _poly_trim(f[:]), _poly_trim(g[:])
    while g != [0]:
        f, g = g, _poly_mod(f, g, p)
    if f[-1] != 1:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
    return f


def _poly_powmod(base, e: int, m, p):
    """base^e mod m over GF(p)."""
    result = [1]
    base = _poly_mod(base, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul_modp(result, base, p), m, p)
        base = _poly_mod(_poly_mul_modp(base, base, p), m, p)
        e >>= 1
    return result


def _roots_modp(f, p):
    """The distinct roots in GF(p) of f, which splits over GF(p) into linear
    factors: every class-matrix characteristic polynomial does, as p = 1 mod
    exp(G).  Cantor–Zassenhaus runs on the squarefree part f / gcd(f, f'); a
    factor that no shift c in GF(p) splits has a root outside GF(p) and
    raises InvariantViolation."""
    f = _poly_trim(f[:])
    if f == [0]:
        raise InvariantViolation("root search on the zero polynomial")
    df = _poly_trim([i * a % p for i, a in enumerate(f)][1:] or [0])
    roots, todo = [], [(_poly_divide_exact(f, _poly_gcd_modp(f, df, p), p), 0)]
    # split it into its linear factors from a work list (a recursive
    # closure would leave a reference cycle behind on every call)
    while todo:
        h, c = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] * pow(h[1], p - 2, p) % p)
        if len(h) <= 2:
            continue
        for c in range(c, c + p):
            # gcd((x+c)^((p-1)/2) - 1, h) separates roots by quadratic character
            acc = _poly_powmod([c, 1], (p - 1) // 2, h, p)
            acc[0] = (acc[0] - 1) % p
            w = _poly_gcd_modp(acc, h, p)
            if 1 < len(w) < len(h):
                todo += [(w, c + 1), (_poly_divide_exact(h, w, p), c + 1)]
                break
        else:
            raise InvariantViolation(f"a factor of degree {len(h) - 1} does not split mod {p}")
    return sorted(roots)


def _poly_divide_exact(f, g, p):
    q = [0] * (len(f) - len(g) + 1)
    rem = f[:]
    inv = pow(g[-1], p - 2, p)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(g) - 1] * inv % p
        q[i] = c
        if c:
            for j in range(len(g)):
                rem[i + j] = (rem[i + j] - c * g[j]) % p
    if any(rem[:len(g) - 1]):
        raise InvariantViolation("polynomial division mod p leaves a remainder")
    return _poly_trim(q)


def _charpoly_modp(A, p):
    """Characteristic polynomial det(xI - A) over GF(p) via Hessenberg form."""
    n = len(A)
    H = [row[:] for row in A]
    for c in range(n - 2):
        pr = next((r for r in range(c + 1, n) if H[r][c] % p), None)
        if pr is None:
            continue
        if pr != c + 1:
            H[pr], H[c + 1] = H[c + 1], H[pr]
            for i in range(n):
                H[i][pr], H[i][c + 1] = H[i][c + 1], H[i][pr]
        inv = pow(H[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            f = H[r][c] * inv % p
            if f:
                for j in range(n):
                    H[r][j] = (H[r][j] - f * H[c + 1][j]) % p
                for i in range(n):
                    H[i][c + 1] = (H[i][c + 1] + f * H[i][r]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] + prev
        for i in range(len(prev)):
            cur[i] = (cur[i] - H[m - 1][m - 1] * prev[i]) % p
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = prod * H[i][i - 1] % p
            coef = H[i - 1][m - 1] * prod % p
            if coef:
                low = polys[i - 1]
                for j in range(len(low)):
                    cur[j] = (cur[j] - coef * low[j]) % p
        polys.append(cur)
    return polys[n]


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------

class CharacterTable:
    """Irreducible characters x conjugacy classes, exactly over Q(zeta).

    `values[i][j]` is chi_i(g_j) as its int coordinates in the power basis
    of Z[zeta_n], n the order of g_j; the 2-modular reduction in `blocks`
    and the conductors in `to_json` read them.  `chars` holds the same
    values as `Cyclotomic`, for the report only.  `chars_p` holds the rows
    mod the Dixon prime p; the k rows are distinct (distinct central
    characters mod p, and p exceeds every degree), so every integer-valued
    invariant (FS indicators, conjugates, 2-rationality) is decided from
    them.
    """

    def __init__(self, group: PermGroup, classes, values, degrees, prime,
                 power_classes, chars_p):
        self.group = group
        self.classes = classes
        self.values = values            # list of tuples of int tuples
        self.degrees = degrees
        self.k = len(classes)
        self.prime = prime
        self.power_classes = power_classes  # [j][r]: class of rep_j^r, 0 <= r < order
        self.chars_p = chars_p          # list of tuples: chi mod p, per class
        self._row_index = {row: i for i, row in enumerate(chars_p)}
        if len(self._row_index) != self.k:
            raise InvariantViolation("two characters agree mod p")
        self.inverse_map = tuple(self._power_map(-1))
        self.powermap2 = tuple(self._power_map(2))

    @cached_property
    def chars(self):
        """The values as `Cyclotomic`, each in Q(zeta_n) for its class order n."""
        return [tuple(Cyclotomic(c.order, v) for c, v in zip(self.classes, row))
                for row in self.values]

    # -- class/power bookkeeping -----------------------------------------

    def _power_map(self, r: int):
        return [pcs[r % len(pcs)] for pcs in self.power_classes]

    def _row_of(self, i: int, pm) -> int:
        """Index of the row chi_i o pm (a Galois conjugate of chi_i)."""
        row = self.chars_p[i]
        l = self._row_index.get(tuple(row[j] for j in pm))
        if l is None:
            raise InvariantViolation(f"chi_{i} composed with a power map is no row")
        return l

    # -- derived data -------------------------------------------------------

    def fs_indicator(self, i: int) -> int:
        """Frobenius–Schur indicator of chi_i, in {-1, 0, +1}.

        (1/|G|) sum_j |C_j| chi(g_j^2) mod p; p > 3 is prime to |G|, so the
        residue decides the indicator."""
        p = self.prime
        row = self.chars_p[i]
        total = sum(len(c.members) * row[j2] for c, j2 in zip(self.classes, self.powermap2))
        v = total * pow(self.group.order, -1, p) % p
        if v == p - 1:
            return -1
        if v > 1:
            raise NonIndicatorValue(f"chi_{i}: {v} mod {p}")
        return v

    def fs_vector(self):
        return tuple(self.fs_indicator(i) for i in range(self.k))

    def conj_char(self, i: int) -> int:
        """Row index of the complex conjugate character."""
        return self._row_of(i, self.inverse_map)

    def is_real_char(self, i: int) -> bool:
        return self.conj_char(i) == i

    def _two_galois_exponents(self):
        """Exponents r = 1 mod (odd part) generating Galois fixing odd roots."""
        n = self.group.exponent()
        m = n
        while m % 2 == 0:
            m //= 2
        return [r for r in range(1, n + 1) if r % m == 1 % m and gcd(r, n) == 1]

    def is_two_rational(self, i: int) -> bool:
        """Fixed by every Galois map that fixes all odd-order roots of unity."""
        return all(self._row_of(i, self._power_map(r)) == i
                   for r in self._two_galois_exponents())

    def two_conjugacy_families(self, rows):
        """Partition the given rows into 2-conjugacy (Galois) orbits."""
        rows = list(rows)
        pms = [self._power_map(r) for r in self._two_galois_exponents()]
        fams = []
        remaining = set(rows)
        for i in rows:
            if i not in remaining:
                continue
            orbit = {self._row_of(i, pm) for pm in pms} & remaining
            fams.append(tuple(sorted(orbit)))
            remaining -= orbit
        return fams

    def _descents(self, j: int) -> list:
        """(d, classes of g_j^r for r = 1 mod d prime to n) for d | n, ascending.

        sigma_r sends chi(g_j) to chi(g_j^r), so chi(g_j) lies in Q(zeta_d)
        exactly when it equals its values at these classes; d = n always
        passes, its only class being j."""
        pcs = self.power_classes[j]
        n = len(pcs)
        return [(d, {pcs[r] for r in range(1, n, d) if gcd(r, n) == 1})
                for d in range(1, n + 1) if n % d == 0]

    def _minimized_values(self):
        """Each value rewritten in Q(zeta_d), d its least conductor."""
        descents = [self._descents(j) for j in range(self.k)]
        return [[self.chars[i][j].rewrite(next(
                    d for d, cls in descents[j] if all(row[l] == v for l in cls)))
                 for j, v in enumerate(row)]
                for i, row in enumerate(self.values)]

    def to_json(self):
        return {
            "order": self.group.order,
            "classes": [{"order": c.order, "size": c.size(), "real": c.is_real,
                         "two_regular": c.is_2regular} for c in self.classes],
            "degrees": list(self.degrees),
            "fs_vector": list(self.fs_vector()),
            "real_flags": [self.is_real_char(i) for i in range(self.k)],
            "two_rational_flags": [self.is_two_rational(i) for i in range(self.k)],
            "values": [[v.to_json() for v in row] for row in self._minimized_values()],
        }


def capped_classes(G: PermGroup) -> list:
    """G's conjugacy classes, refused (CapExceeded) above CLASS_CAP."""
    classes = G.conjugacy_classes()
    if len(classes) > CLASS_CAP:
        raise CapExceeded(f"{len(classes)} classes exceeds cap {CLASS_CAP}")
    return classes


def dixon_table(G: PermGroup) -> CharacterTable:
    """Compute the exact ordinary character table of G."""
    classes = capped_classes(G)
    k = len(classes)
    order = G.order
    class_of = G.class_of
    id_class = class_of[G.identity_idx()]
    inv_class = [class_of[G.inverse_idx(c.rep)] for c in classes]
    p = _dixon_prime(G.exponent(), order)
    inv_sizes = [pow(c.size(), -1, p) for c in classes]

    # power_classes[j][r] is the class of g_j^r, 0 <= r < order
    power_classes = [list(map(class_of.__getitem__, G.powers(c.rep, c.order))) for c in classes]

    # simultaneous eigenvectors of the class matrices (columns w with
    # M_i w = omega_i w), each M_i built only when the loop takes class i;
    # high element orders first, as they split the space soonest.  A space
    # on which M_i is a scalar is kept as it is: M_i cannot split it
    member_slots = [G.slots(c.members) for c in classes]
    spaces = [unit := [[int(j == c) for c in range(k)] for j in range(k)]]
    for i in sorted(range(k), key=lambda i: -classes[i].order):
        if all(len(b) == 1 for b in spaces):
            break
        if i == id_class:
            continue  # M = I splits nothing
        M = _class_matrix(G, classes[i], inv_sizes, p, member_slots)
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            if basis is unit:
                A = M  # in unit coordinates; no scalar, as M[id_class][i] = 1
            else:
                imgs = [[sum(map(mul, row, b)) % p for row in M] for b in basis]
                if _is_scalar(imgs, basis, p):
                    new_spaces.append(basis)
                    continue
                A = _restrict(imgs, basis, p)
            cols = list(zip(*basis))
            split = [[[sum(map(mul, coord, col)) % p for col in cols] for coord in coords]
                     for coords in _eigenspaces(A, p)]
            # the class algebra is semisimple mod p, so eigenspaces fill up
            if sum(map(len, split)) != len(basis):
                raise InvariantViolation("eigenspaces of a class matrix do not fill up")
            new_spaces += split
        spaces = new_spaces
    if len(spaces) != k or any(len(b) != 1 for b in spaces):
        raise InvariantViolation("class matrices do not split into k lines")

    omegas = []
    for (w,) in spaces:
        scale = pow(w[id_class], p - 2, p)
        omegas.append([x * scale % p for x in w])

    degrees = []
    for w in omegas:
        f = sum(w[j] * w[inv_class[j]] * inv_sizes[j] for j in range(k)) % p
        d2 = order * pow(f, p - 2, p) % p
        # p > 4 isqrt|G| + 1, so at most one d <= isqrt|G| has d^2 = d2 mod p
        d = next((d for d in range(1, isqrt(order) + 1) if d * d % p == d2), None)
        if d is None:
            raise InvariantViolation(f"no degree d <= sqrt|G| with d^2 = {d2} mod {p}")
        degrees.append(d)
    if sum(d * d for d in degrees) != order:
        raise InvariantViolation("squared degrees do not sum to |G|")

    # exact value lift per class from eigenvalue multiplicities: chi(g_j) has
    # lambda^m with multiplicity c_m = sum_c chi(C_c) W_j[m][c], where W_j[m][c]
    # is the sum of lambda^(-mr)/n over the r with g_j^r in C_c.  For s prime
    # to n with g_j^s in C_j, r -> s^-1 r moves g_j^r within its class, so
    # c_m = c_ms: one c_m per orbit of these s on Z/n
    z = _primitive_root(p)
    chars_p = [tuple(d * w[j] % p * inv_sizes[j] % p for j in range(k))
               for w, d in zip(omegas, degrees)]
    columns = []
    for j, (c, pcs) in enumerate(zip(classes, power_classes)):
        n = c.order
        stab = [s for s, pc in enumerate(pcs) if pc == j and gcd(s, n) == 1]
        orbit_of, reps = [None] * n, []
        for m in range(n):
            if orbit_of[m] is None:
                for s in stab:
                    orbit_of[m * s % n] = len(reps)
                reps.append(m)
        lam_inv = pow(z, (p - 1) // n * (n - 1), p)
        inv_n = pow(n, -1, p)
        W = []
        for m in reps:
            step, t, acc = pow(lam_inv, m, p), inv_n, {}
            for pc in pcs:
                acc[pc] = (acc.get(pc, 0) + t) % p
                t = t * step % p
            W.append((tuple(acc), tuple(acc.values())))
        coords, column = {}, []  # coords: power_coords per vector of orbit multiplicities
        for chi_p, d in zip(chars_p, degrees):
            per_orbit = tuple([sum(map(mul, map(chi_p.__getitem__, cls), wts)) % p
                               for cls, wts in W])
            if max(per_orbit) > d:
                raise InvariantViolation("eigenvalue multiplicity out of range")
            if sum(map(per_orbit.__getitem__, orbit_of)) != d:
                raise InvariantViolation("eigenvalue multiplicities do not sum to the degree")
            if per_orbit not in coords:
                coords[per_orbit] = power_coords(n, dict(enumerate(
                    map(per_orbit.__getitem__, orbit_of))))
            column.append(coords[per_orbit])
        columns.append(column)
    values = list(zip(*columns))

    # deterministic row order: degree, then the mod-p value vector
    key = sorted(range(k), key=lambda i: (degrees[i],
                                          tuple(degrees[i] * omegas[i][j] % p for j in range(k))))
    values = [values[i] for i in key]
    chars_p = [chars_p[i] for i in key]
    degrees = [degrees[i] for i in key]

    for row, d in zip(values, degrees):
        if row[id_class] != (d,):
            raise InvariantViolation("a character's value at 1 is not its degree")
    return CharacterTable(G, classes, values, degrees, p, power_classes, chars_p)


def _class_matrix(G: PermGroup, c, inv_sizes: list, p: int, member_slots: list) -> list:
    """The class matrix M_i = (a_ijl mod p)_{j,l} of c = C_i, a_ijl = #{(x, y) in
    C_i x C_j : xy = g_l}, from the left row L: y -> g_i·y and 1/|C_l| = inv_sizes[l].

    Counting the triples xy = z in C_i x C_j x C_l from either end gives
    |C_l| a_ijl = |C_i| #{y in C_j : g_i·y in C_l}, and p does not divide |C_l|.
    L stays in the closure's slot order, and member_slots[j] holds the
    slots of C_j (`PermGroup.slots`)."""
    class_of, k, size = G.class_of, len(inv_sizes), c.size()
    M = [[0] * k for _ in range(k)]
    L = G.left(c.rep, in_slots=True)
    for Mj, slots in zip(M, member_slots):
        for l, n in Counter(map(class_of.__getitem__, map(L.__getitem__, slots))).items():
            Mj[l] = size * n * inv_sizes[l] % p
    return M


def _eigenspaces(A, p) -> list:
    """A basis of each eigenspace of A over GF(p), one per root lam of its
    characteristic polynomial f.  For a simple root, g = f/(x - lam) gives
    v = g(A)e with e = (1, ..., 1), a sum over the Krylov basis A^i e;
    (A - lam)v = f(A)e = 0 by Cayley–Hamilton, and a simple root's
    eigenspace is a line, so v spans it unless v = 0.  A repeated root, or
    v = 0, takes the nullspace of A - lam."""
    f, out = _charpoly_modp(A, p), []
    krylov = [[1] * len(A)]
    while len(krylov) < len(A):
        krylov.append([sum(map(mul, row, krylov[-1])) % p for row in A])
    for lam in _roots_modp(f, p):
        g, acc, g_lam = [0] * (len(f) - 1), 0, 0
        for i in range(len(g) - 1, -1, -1):  # synthetic division, and Horner for g(lam)
            g[i] = acc = (f[i + 1] + lam * acc) % p
            g_lam = (g_lam * lam + acc) % p
        v = [sum(map(mul, g, comp)) % p for comp in zip(*krylov)] if g_lam else ()
        # rref reduces A - lam mod p
        out.append([v] if any(v) else linalg.nullspace(
            [row[:r] + [row[r] - lam] + row[r + 1:] for r, row in enumerate(A)], p))
    return out


def _is_scalar(imgs, basis, p) -> bool:
    """Whether imgs[n] = lam·basis[n] for one lam and every n."""
    b0 = basis[0]
    c = next(c for c, x in enumerate(b0) if x)
    lam = imgs[0][c] * pow(b0[c], p - 2, p) % p
    return all(img == [lam * x % p for x in b] for img, b in zip(imgs, basis))


def _restrict(imgs, basis, p):
    """Matrix of w -> M w on span(basis), in basis coordinates, from the
    images imgs[n] = M basis[n]."""
    sol = linalg.solve(basis, imgs, p)
    if sol is None:
        raise InvariantViolation("vector outside span")
    return [list(row) for row in zip(*sol[0])]
