"""GF(2^f) scalar arithmetic and bit-packed GF(2) linear algebra.

Rows of GF(2) matrices are python ints used as bitsets (bit j = column j),
so row operations are single int XORs.  A product v*M sums the rows at v's
set bits: a sparse v by a loop over its bits, a dense one at C level, by
`compress` over its binary string, and M*N is one such product per row.
The one eliminator, `Echelon`, keeps coordinates only on a span built to
be solved against (`restrict`, `krylov_relation`), and carries
them in the same ints as the rows.  Every matrix is over GF(2): GF(2^f)
occurs only as scalars (central characters, block idempotent coefficients),
held as ints of polynomial bits modulo a fixed primitive polynomial per f;
the table below pins the tower so all runs are reproducible bit-for-bit.
GF(2)[x] polynomials are ints of coefficient bits as well.  `poly_primes`
splits one into its distinct irreducible factors, deterministically, through
the idempotents of GF(2)[x]/(m) (`poly_idempotents`), which the MeatAxe and
the summand split both use.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import xor

from .errors import FieldTooSmall, InvariantViolation

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


def poly_lcm(a: int, b: int) -> int:
    return poly_divmod(poly_mul(a, b), poly_gcd(a, b))[0]


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


def poly_idempotents(m: int) -> list:
    """A basis of the idempotents of GF(2)[x]/(m), as polynomials of degree < deg m.

    In char 2, q -> q^2 + q is linear, and its kernel is the algebra of
    idempotents (Berlekamp): row i of the map is x^(2i) + x^i mod m.  Its
    dimension is the number of distinct irreducible factors of m, and the
    first vector of the basis is 1."""
    deg = poly_deg(m)
    rows, sq = [], 1
    for i in range(deg):
        rows.append(sq ^ (1 << i))
        sq = poly_mod(sq << 2, m)  # x^(2i+2) from x^(2i)
    return BitMatrix(rows, deg).kernel()


def poly_primes(m: int) -> list:
    """The distinct irreducible factors of m over GF(2), in ascending order.

    Every idempotent of GF(2)[x]/(m) is 0 or 1 modulo each primary part
    q^e of m, and the basis separates any two parts, so the gcds with the
    basis split m into its primary parts.  q is the squarefree part of q^e:
    take square roots while the derivative vanishes, leaving an odd power
    q^k, then q = q^k / gcd(q^k, (q^k)')."""
    if m == 0:
        raise ValueError("zero polynomial")
    parts = [m] if poly_deg(m) > 0 else []
    for e in poly_idempotents(m):
        split = []
        for part in parts:
            g = poly_gcd(part, e)
            if 0 < poly_deg(g) < poly_deg(part):
                split += [g, poly_divmod(part, g)[0]]
            else:
                split.append(part)
        parts = split
    primes = []
    for part in parts:
        while (d := poly_deriv(part)) == 0:
            part = _poly_sqrt(part)
        primes.append(poly_divmod(part, poly_gcd(part, d))[0])
    return sorted(primes)


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

    def mul(self, a: int, b: int) -> int:
        return poly_mulmod(a, b, self.modulus) if self.f > 1 else (a & b)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n else 1
        n %= self.order - 1
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def generator(self) -> int:
        return 0b10 if self.f > 1 else 1

    def root_of_unity(self, e: int) -> int:
        """The pinned primitive e-th root: generator^((2^f-1)/e); e must divide 2^f - 1."""
        if (self.order - 1) % e != 0:
            raise ValueError(f"no {e}-th roots in GF(2^{self.f})")
        return self.pow(self.generator(), (self.order - 1) // e)


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

# Set bits of v from which `mul_vec` picks rows by compress over v's binary
# string rather than by a Python loop over the bits.  Timed on random n x n
# matrices (2-vCPU Xeon VM, Python 3.11): the two cross between 12 and 16
# bits at n = 32..128; at n = 232 the loop still wins at 16 bits (4.4
# against 6.1 us) but loses by half at n/2 bits (25 against 12 us).
DENSE_BITS = 16
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

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

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __eq__(self, other):
        return (isinstance(other, BitMatrix)
                and self.ncols == other.ncols and self.rows == other.rows)

    def __add__(self, other) -> "BitMatrix":
        return BitMatrix(list(map(xor, self.rows, other.rows)), self.ncols)

    def __mul__(self, other) -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return BitMatrix(list(map(other.mul_vec, self.rows)), other.ncols)

    def mul_vec(self, v: int) -> int:
        """Row vector times matrix: returns sum of rows selected by v's bits.

        A sparse v is walked bit by bit; from DENSE_BITS set bits on, the
        rows are picked at C level by compress over v's binary string."""
        rows = self.rows
        if v.bit_count() < DENSE_BITS:
            acc = 0
            while v:
                low = v & -v
                acc ^= rows[low.bit_length() - 1]
                v ^= low
            return acc
        bits = bin(v)[:1:-1].encode().translate(_BIT_BYTES)  # bits[j] = bit j of v
        if len(bits) > len(rows):
            raise IndexError("vector wider than the matrix")
        return reduce(xor, compress(rows, bits), 0)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.ncols
        for i, r in enumerate(self.rows):
            v = r
            while v:
                low = v & -v
                out[low.bit_length() - 1] |= 1 << i
                v ^= low
        return BitMatrix(out, self.nrows)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def rank(self) -> int:
        return len(Echelon(self.rows))

    def kernel(self) -> list:
        """Basis of {v : v * M = 0} with v a row vector (int bitset over nrows)."""
        # eliminate the rows of [M | I]; a row whose M part clears leaves a
        # kernel vector in its I part
        n = self.ncols
        low = (1 << n) - 1
        ech = Echelon()
        out = []
        for i, r in enumerate(self.rows):
            v = ech.reduce(r | (1 << (n + i)))
            if v & low:
                ech.add(v)
            else:
                out.append(v >> n)
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


class Echelon:
    """Incremental GF(2) elimination; the one eliminator of the workbench.

    Each row is stored under its pivot bit, its lowest set bit, and
    `pivots` ORs all pivot bits.  An XOR with the row at pivot p only
    touches bits >= p, so clearing the lowest bit of v & pivots until none
    is left takes at most len(self) steps and ends at the unique vector of
    v + span with no pivot bit set.  `vectors` are the independent added
    vectors, in add order.

    A span that is solved against is built with a `width`, a bound on the
    bit length of its vectors: each row then carries above bit `width` its
    coordinates as a bitmask over `vectors`, so that the XORs that reduce
    v sum its coordinates too.  A span built without one keeps no
    coordinates and cannot `solve`.
    """

    __slots__ = ("rows", "pivots", "vectors", "width", "_low")

    def __init__(self, vectors=(), width=None):
        self.rows = {}  # pivot bit -> row, its coordinates above `width`
        self.pivots = 0
        self.vectors = []
        self.width = width
        self._low = -1 if width is None else (1 << width) - 1  # the vector bits of a row
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self.vectors)

    def _eliminate(self, v: int) -> int:
        """v with every pivot bit cleared, and above `width` the coordinates
        of what was cleared."""
        rows, pivots = self.rows, self.pivots
        hit = v & pivots
        while hit:
            v ^= rows[hit & -hit]
            hit = v & pivots
        return v

    def reduce(self, v: int) -> int:
        return self._eliminate(v) & self._low

    def add(self, v: int) -> bool:
        """Insert v if independent; returns True if the span grew."""
        if v & ~self._low:
            raise ValueError(f"vector wider than the span's width {self.width}")
        r = self._eliminate(v)
        low = r & self._low & -r
        if low == 0:
            return False
        if self.width is not None:
            r ^= 1 << (self.width + len(self.vectors))
        self.rows[low] = r
        self.pivots |= low
        self.vectors.append(v)
        return True

    def solve(self, v: int):
        """Coordinates of v over `vectors` as a bitmask, or None if v is outside."""
        if self.width is None:
            raise InvariantViolation("a span built without coordinates cannot solve")
        if v & ~self._low:
            return None
        r = self._eliminate(v)
        return None if r & self._low else r >> self.width

    def reduced_basis(self, width: int) -> "Echelon":
        """The same span with the stored rows as its `vectors`, built with
        `width` to solve against: each added vector reduced against the rows
        before it.  These are usually sparser than the added vectors, and so
        are matrices written in them."""
        return Echelon(map(self._low.__and__, self.rows.values()), width)


def restrict(ech: Echelon, images, what: str = "subspace") -> BitMatrix:
    """The matrix whose rows are the coordinates of `images` over ech.vectors.

    With images[i] the image of ech.vectors[i] under a linear map, this is
    the map's action on the span.  An image outside the span means the span
    is not closed under the action, which raises InvariantViolation."""
    rows = []
    for w in images:
        c = ech.solve(w)
        if c is None:
            raise InvariantViolation(f"{what} not closed under the action")
        rows.append(c)
    return BitMatrix(rows, len(ech))


def eval_poly(A: BitMatrix, poly: int) -> BitMatrix:
    """poly(A) by Horner."""
    n = A.nrows
    ident = BitMatrix.identity(n)
    out = BitMatrix.zero(n, n)
    for i in range(poly.bit_length() - 1, -1, -1):
        out = out * A
        if (poly >> i) & 1:
            out = out + ident
    return out


def krylov_relation(start: int, step, limit: int) -> int:
    """The first linear relation in the sequence start, step(start), ...

    Returned as the polynomial x^k + sum_{i<k} c_i x^i (bit i = c_i) where
    the k-th term (a bitset) is the first one in the span of those before
    it: the local minimal polynomial of start when step is v -> v*A.  The
    terms have at most `limit` bits, so a relation shows up within `limit`
    steps; InvariantViolation is raised if none does."""
    ech = Echelon(width=limit)
    cur = start
    for k in range(limit + 1):
        mask = ech.solve(cur)
        if mask is not None:
            return (1 << k) | mask
        ech.add(cur)
        cur = step(cur)
    raise InvariantViolation(f"no Krylov relation within {limit} steps")
