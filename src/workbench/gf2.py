"""GF(2^f) scalar arithmetic and bit-packed GF(2) linear algebra.

Rows of GF(2) matrices are python ints used as bitsets (bit j = column j),
so row operations are single int XORs.  GF(2^f) elements are ints holding
polynomial bits modulo a fixed primitive polynomial per f; the table below
pins the tower so all runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from .errors import FieldTooSmall

# Fixed primitive polynomials (bit i = coefficient of x^i).  Classic LFSR
# table entries; primitivity is verified by the test suite for every f.
PRIMITIVE_POLY = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b11010000000010001,  # x^16 + x^15 + x^13 + x^4 + 1
    17: 0b100000000000001001,  # x^17 + x^3 + 1
    18: 0b1000000000010000001,  # x^18 + x^7 + 1
    19: 0b10000000000000100111,  # x^19 + x^5 + x^2 + x + 1
    20: 0b100000000000000001001,  # x^20 + x^3 + 1
}


# ---------------------------------------------------------------------------
# GF(2)[x] polynomials as int bitmasks
# ---------------------------------------------------------------------------

def poly_deg(a: int) -> int:
    return a.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_divmod(a: int, m: int) -> tuple:
    if m == 0:
        raise ZeroDivisionError
    dm = poly_deg(m)
    q = 0
    while a.bit_length() - 1 >= dm and a:
        shift = a.bit_length() - 1 - dm
        q ^= 1 << shift
        a ^= m << shift
    return q, a


def poly_mod(a: int, m: int) -> int:
    return poly_divmod(a, m)[1]


def poly_mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(poly_mul(a, b), m)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_powmod(a: int, n: int, m: int) -> int:
    out = 1
    a = poly_mod(a, m)
    while n:
        if n & 1:
            out = poly_mulmod(out, a, m)
        a = poly_mulmod(a, a, m)
        n >>= 1
    return out


def poly_deriv(a: int) -> int:
    # char 2: only odd-degree terms survive, shifted down
    out = 0
    i = 1
    while (a >> i):
        if (a >> i) & 1:
            out |= 1 << (i - 1)
        i += 2
    return out


def _poly_sqrt(a: int) -> int:
    # a has only even-degree terms; return b with b^2 = a
    out = 0
    i = 0
    while (a >> (2 * i)):
        if (a >> (2 * i)) & 1:
            out |= 1 << i
        i += 1
    return out


def poly_squarefree_parts(f: int) -> list:
    """Squarefree decomposition over GF(2): list of (squarefree factor, multiplicity)."""
    if f == 0:
        raise ValueError("zero polynomial")
    out = []

    def rec(g: int, mult: int):
        if poly_deg(g) <= 0:
            return
        d = poly_deriv(g)
        if d == 0:
            rec(_poly_sqrt(g), 2 * mult)
            return
        c = poly_gcd(g, d)
        sf, _ = poly_divmod(g, c)
        if poly_deg(sf) > 0:
            out.append((sf, mult))
        rec(c, mult)

    rec(f, 1)
    # merge repeated squarefree parts: factor overlaps resolved by caller
    return out


def poly_factor(f: int, rng=None) -> dict:
    """Factor f over GF(2) into {irreducible: multiplicity} (Cantor-Zassenhaus)."""
    import random
    rng = rng or random.Random(0)
    factors: dict = {}

    def ddf(sf: int):
        """Distinct-degree factorization of squarefree sf."""
        parts = []
        h = 2  # x
        v = sf
        d = 0
        while poly_deg(v) >= 2 * (d + 1):
            d += 1
            h = poly_powmod(h, 2, v)
            g = poly_gcd(h ^ 2, v)  # gcd(x^(2^d) - x, v)
            if poly_deg(g) > 0:
                parts.append((g, d))
                v, _r = poly_divmod(v, g)
                assert _r == 0
                h = poly_mod(h, v)
        if poly_deg(v) > 0:
            parts.append((v, poly_deg(v)))
        return parts

    def edf(g: int, d: int):
        """Split squarefree g = product of irreducibles of degree d."""
        n = poly_deg(g)
        if n == d:
            return [g]
        while True:
            r = rng.getrandbits(n) | 1
            r = poly_mod(r, g)
            if poly_deg(r) < 1:
                continue
            # trace map Tr(r) = r + r^2 + ... + r^(2^(d-1)) splits over GF(2)
            t = 0
            cur = r
            for _ in range(d):
                t ^= cur
                cur = poly_mulmod(cur, cur, g)
            c = poly_gcd(t, g)
            if 0 < poly_deg(c) < n:
                return edf(c, d) + edf(poly_divmod(g, c)[0], d)

    def add(p: int, mult: int):
        factors[p] = factors.get(p, 0) + mult

    for sf, mult in poly_squarefree_parts(f):
        for g, d in ddf(sf):
            for p in edf(g, d):
                add(p, mult)
    # fix multiplicities exactly by trial division
    exact = {}
    rem = f
    for p in sorted(factors):
        m = 0
        while True:
            q, r = poly_divmod(rem, p)
            if r != 0:
                break
            rem = q
            m += 1
        if m:
            exact[p] = m
    assert poly_deg(rem) <= 0
    return exact


# ---------------------------------------------------------------------------
# GF(2^f) scalars
# ---------------------------------------------------------------------------

class GF2Field:
    """Arithmetic in GF(2^f) with the pinned primitive polynomial."""

    def __init__(self, f: int):
        if f not in PRIMITIVE_POLY:
            raise FieldTooSmall(f"no primitive polynomial pinned for f={f}")
        self.f = f
        self.modulus = PRIMITIVE_POLY[f]
        self.order = 1 << f

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return poly_mulmod(a, b, self.modulus) if self.f > 1 else (a & b)

    def pow(self, a: int, n: int) -> int:
        n %= self.order - 1 if a else 1
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self.pow(a, self.order - 2)

    def generator(self) -> int:
        return 0b10 if self.f > 1 else 1

    def root_of_unity(self, e: int) -> int:
        """The pinned primitive e-th root: generator^((2^f-1)/e); e must divide 2^f - 1."""
        if (self.order - 1) % e != 0:
            raise ValueError(f"no {e}-th roots in GF(2^{self.f})")
        return self.pow(self.generator(), (self.order - 1) // e)


class GF2m:
    """An element of GF(2^f); thin value wrapper used at module boundaries."""

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

    def is_zero(self) -> bool:
        return self.value == 0


def multiplicative_order_of_2(e: int) -> int:
    """Least f with 2^f = 1 mod e (e odd)."""
    if e % 2 == 0:
        raise ValueError("e must be odd")
    if e == 1:
        return 1
    f = 1
    r = 2 % e
    while r != 1:
        r = (2 * r) % e
        f += 1
    return f


# ---------------------------------------------------------------------------
# Bit-packed GF(2) matrices
# ---------------------------------------------------------------------------

class BitMatrix:
    """Dense GF(2) matrix; each row is an int bitset (bit j = column j)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols: int):
        self.rows = list(rows)
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls([0] * nrows, ncols)

    @classmethod
    def from_lists(cls, data) -> "BitMatrix":
        ncols = len(data[0]) if data else 0
        rows = []
        for r in data:
            v = 0
            for j, x in enumerate(r):
                if x & 1:
                    v |= 1 << j
            rows.append(v)
        return cls(rows, ncols)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows[:], self.ncols)

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __eq__(self, other):
        return (isinstance(other, BitMatrix)
                and self.ncols == other.ncols and self.rows == other.rows)

    def __add__(self, other) -> "BitMatrix":
        return BitMatrix([a ^ b for a, b in zip(self.rows, other.rows)], self.ncols)

    def __mul__(self, other) -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        orows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            v = r
            while v:
                low = v & -v
                acc ^= orows[low.bit_length() - 1]
                v ^= low
            out.append(acc)
        return BitMatrix(out, other.ncols)

    def mul_vec(self, v: int) -> int:
        """Row vector times matrix: returns sum of rows selected by v's bits."""
        acc = 0
        rows = self.rows
        while v:
            low = v & -v
            acc ^= rows[low.bit_length() - 1]
            v ^= low
        return acc

    def transpose(self) -> "BitMatrix":
        out = [0] * self.ncols
        for i, r in enumerate(self.rows):
            v = r
            while v:
                low = v & -v
                out[low.bit_length() - 1] |= 1 << i
                v ^= low
        return BitMatrix(out, self.nrows)

    def pow(self, n: int) -> "BitMatrix":
        result = BitMatrix.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def inverse(self) -> "BitMatrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        work = [(self.rows[i], 1 << i) for i in range(n)]
        basis = []
        for row, tag in work:
            for p, b, t in basis:
                if row & (1 << p):
                    row ^= b
                    tag ^= t
            if row == 0:
                raise ZeroDivisionError("matrix not invertible")
            piv = (row & -row).bit_length() - 1
            basis.append((piv, row, tag))
            basis.sort(key=lambda e: e[0])
        # back-substitute to reduced form
        inv_rows = [0] * n
        for i in range(n - 1, -1, -1):
            p, row, tag = basis[i]
            for q, row2, tag2 in basis[i + 1:]:
                if row & (1 << q):
                    row ^= row2
                    tag ^= tag2
            basis[i] = (p, row, tag)
            inv_rows[p] = tag
        return BitMatrix(inv_rows, n)

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form: (rows, pivot_columns)."""
        rows = [r for r in self.rows if r]
        pivots = []
        out = []
        for col in range(self.ncols):
            mask = 1 << col
            pr = None
            for i, r in enumerate(rows):
                if r & mask:
                    pr = i
                    break
            if pr is None:
                continue
            piv = rows.pop(pr)
            rows = [r ^ piv if r & mask else r for r in rows]
            out = [r ^ piv if r & mask else r for r in out]
            out.append(piv)
            pivots.append(col)
            if not rows:
                break
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[0])

    def kernel(self) -> list:
        """Basis of {v : v * M = 0} with v a row vector (int bitset over nrows)."""
        # eliminate on [M | I] rows; pivots on lowest set bits, kept sorted
        # ascending so a single reduction pass is sound
        n = self.nrows
        out = []
        basis = []  # (pivot, row, tag) sorted by pivot
        for i in range(n):
            row, tag = self.rows[i], 1 << i
            for p, b, t in basis:
                if row & (1 << p):
                    row ^= b
                    tag ^= t
            if row:
                piv = (row & -row).bit_length() - 1
                basis.append((piv, row, tag))
                basis.sort(key=lambda e: e[0])
            else:
                out.append(tag)
        return out

    def export_text(self) -> str:
        """Documented interchange format: 'nrows ncols' header, then hex rows."""
        lines = [f"{self.nrows} {self.ncols}"]
        width = (self.ncols + 3) // 4
        lines += [format(r, f"0{width}x") for r in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        nrows, ncols = map(int, lines[0].split())
        rows = [int(ln, 16) for ln in lines[1:1 + nrows]]
        return cls(rows, ncols)


class GFMatrix:
    """Small dense matrix over GF(2^f); used only off the bit-packed fast path."""

    def __init__(self, field: GF2Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, [[0] * ncols for _ in range(nrows)])

    def __eq__(self, other):
        return isinstance(other, GFMatrix) and self.rows == other.rows

    def __add__(self, other):
        return GFMatrix(self.field, [[a ^ b for a, b in zip(r1, r2)]
                                     for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        F = self.field
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for t, a in enumerate(row):
                if a:
                    orow = other.rows[t]
                    oi = out[i]
                    for j, b in enumerate(orow):
                        if b:
                            oi[j] ^= F.mul(a, b)
        return GFMatrix(F, out)

    def mul_vec(self, v):
        F = self.field
        out = [0] * self.ncols
        for a, row in zip(v, self.rows):
            if a:
                for j, b in enumerate(row):
                    if b:
                        out[j] ^= F.mul(a, b)
        return out

    def row_space(self):
        """(echelon basis rows, pivot columns)."""
        F = self.field
        basis, pivots = [], []
        for r in self.rows:
            r = list(r)
            for b, p in zip(basis, pivots):
                if r[p]:
                    c = r[p]
                    r = [x ^ F.mul(c, y) for x, y in zip(r, b)]
            piv = next((j for j, x in enumerate(r) if x), None)
            if piv is not None:
                inv = F.inv(r[piv])
                r = [F.mul(inv, x) for x in r]
                basis.append(r)
                pivots.append(piv)
        return basis, pivots

    def solve_coords(self, v, basis, pivots):
        """Coordinates of v in an echelonized basis, or None."""
        F = self.field
        v = list(v)
        coords = [0] * len(basis)
        for t, (b, p) in enumerate(zip(basis, pivots)):
            if v[p]:
                c = v[p]
                coords[t] = c
                v = [x ^ F.mul(c, y) for x, y in zip(v, b)]
        return coords if not any(v) else None


class Echelon:
    """Incremental echelon basis over GF(2), pivots on lowest set bits.

    Kept sorted by pivot so one ascending reduction pass is sound (XOR at
    pivot p only touches bits >= p).
    """

    def __init__(self):
        self.entries = []  # (pivot, vector, original_index) sorted by pivot

    def __len__(self):
        return len(self.entries)

    def reduce(self, v: int) -> int:
        for p, b, _ in self.entries:
            if v & (1 << p):
                v ^= b
        return v

    def add(self, v: int, tag=None) -> bool:
        """Insert v if independent; returns True if the span grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        piv = (v & -v).bit_length() - 1
        self.entries.append((piv, v, tag if tag is not None else len(self.entries)))
        self.entries.sort(key=lambda e: e[0])
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def vectors(self) -> list:
        return [b for _, b, _ in self.entries]

    def solve(self, v: int):
        """Tags of basis vectors whose sum is v, or None if v is outside."""
        used = []
        for p, b, tag in self.entries:
            if v & (1 << p):
                v ^= b
                used.append(tag)
        return used if v == 0 else None


def echelon_basis(vectors) -> Echelon:
    ech = Echelon()
    for i, v in enumerate(vectors):
        ech.add(v, tag=i)
    return ech


class CoordSolver:
    """Echelon with bookkeeping: solves for coordinates in terms of the
    ORIGINAL (unreduced) added vectors, as a bitmask over add order."""

    def __init__(self):
        self.entries = []  # (pivot, reduced_vector, mask) sorted by pivot
        self.count = 0

    def __len__(self):
        return self.count

    def add(self, v: int) -> bool:
        mask = 1 << self.count
        for p, b, m in self.entries:
            if v & (1 << p):
                v ^= b
                mask ^= m
        if v == 0:
            return False
        piv = (v & -v).bit_length() - 1
        self.entries.append((piv, v, mask))
        self.entries.sort(key=lambda e: e[0])
        self.count += 1
        return True

    def solve(self, v: int):
        """Bitmask of original vectors summing to v, or None if outside."""
        mask = 0
        for p, b, m in self.entries:
            if v & (1 << p):
                v ^= b
                mask ^= m
        return mask if v == 0 else None
