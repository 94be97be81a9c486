"""Exact arithmetic in Q(zeta_e) and reduction modulo a fixed prime over 2.

Values are represented in Q[x]/(Phi_e(x)) with dense Fraction coefficient
tuples; equality is coefficient equality after lifting to a common
conductor.  Serialization first minimizes the conductor: a value fixed by
the Galois group of Q(zeta_e) over Q(zeta_{e/q}) is rewritten in the
smaller power basis by one rational solve (`linalg.solve`).  Reduction mod 2 sends 2-power-order roots to 1 and an odd-order
root zeta_{e'} to the pinned primitive e'-th root of GF(2^f)*, so all runs
agree bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .errors import ConductorOverflow, InvariantViolation, NotTwoIntegral
from .gf2 import GF2Field, GF2m, multiplicative_order_of_2

# A memory guard on `_power_table` (2e+1 rows of phi(e) ints).  Values are
# lifted one class at a time, so a conductor is at most an element order.
CONDUCTOR_CAP = 1000


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple:
    """Integer coefficients of Phi_e, low degree first."""
    # x^e - 1 divided by all Phi_d, d | e proper
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d:
            continue
        phi_d = cyclotomic_poly(d)
        # exact synthetic division, quotient replaces poly
        out = [0] * (len(poly) - len(phi_d) + 1)
        rem = list(poly)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(phi_d) - 1]
            out[i] = c
            if c:
                for j, pc in enumerate(phi_d):
                    rem[i + j] -= c * pc
        if any(rem[:len(phi_d) - 1]):
            raise InvariantViolation(f"Phi_{d} leaves a remainder in x^{e} - 1")
        poly = out
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_degree(e: int) -> int:
    return len(cyclotomic_poly(e)) - 1


@lru_cache(maxsize=None)
def _power_table(e: int) -> tuple:
    """x^m mod Phi_e for m in 0..2e, as Fraction-free int tuples."""
    phi = cyclotomic_poly(e)
    deg = len(phi) - 1
    table = []
    cur = [0] * deg
    if deg:
        cur[0] = 1
    table.append(tuple(cur))
    for _ in range(2 * e):
        nxt = [0] * (deg + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = c
        lead = nxt[deg]
        if lead:
            for j in range(deg + 1):
                nxt[j] -= lead * phi[j]
        cur = nxt[:deg]
        table.append(tuple(cur))
    return tuple(table)


class Cyclotomic:
    """An element of Q(zeta_e) in the power basis of Q[x]/(Phi_e)."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        if e > CONDUCTOR_CAP:
            raise ConductorOverflow(f"conductor {e} above cap {CONDUCTOR_CAP}")
        deg = _phi_degree(e)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != deg:
            raise ValueError("coefficient length != phi(e)")
        self.e = e
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Cyclotomic":
        return cls(1, [Fraction(value)])

    @classmethod
    def root(cls, e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k."""
        if e > CONDUCTOR_CAP:
            raise ConductorOverflow(f"conductor {e} above cap {CONDUCTOR_CAP}")
        tab = _power_table(e)
        return cls(e, tab[k % e])

    @classmethod
    def from_exponent_counts(cls, e: int, counts) -> "Cyclotomic":
        """sum over m of counts[m] * zeta_e^m."""
        tab = _power_table(e)
        deg = _phi_degree(e)
        acc = [Fraction(0)] * deg
        for m, c in counts.items():
            if c == 0:
                continue
            vec = tab[m % e]
            for i in range(deg):
                if vec[i]:
                    acc[i] += c * vec[i]
        return cls(e, acc)

    # -- conductor handling -------------------------------------------------

    def lift(self, E: int) -> "Cyclotomic":
        if E == self.e:
            return self
        if E % self.e:
            raise ValueError("can only lift to a multiple of the conductor")
        step = E // self.e
        tab = _power_table(E)
        deg = _phi_degree(E)
        acc = [Fraction(0)] * deg
        for i, c in enumerate(self.coeffs):
            if c:
                vec = tab[(i * step) % E]
                for j in range(deg):
                    if vec[j]:
                        acc[j] += c * vec[j]
        return Cyclotomic(E, acc)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        E = a.e * b.e // gcd(a.e, b.e)
        return a.lift(E), b.lift(E)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        a, b = self._common(self, other)
        return Cyclotomic(a.e, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.e, [-c for c in self.coeffs])

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        a, b = self._common(self, other)
        deg = _phi_degree(a.e)
        conv = [Fraction(0)] * (2 * deg - 1 if deg else 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        tab = _power_table(a.e)
        acc = [Fraction(0)] * deg
        for m, c in enumerate(conv):
            if c:
                vec = tab[m]
                for k in range(deg):
                    if vec[k]:
                        acc[k] += c * vec[k]
        return Cyclotomic(a.e, acc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None

    # -- Galois action ---------------------------------------------------------

    def galois(self, r: int) -> "Cyclotomic":
        """Apply sigma_r: zeta_e -> zeta_e^r (gcd(r, e) = 1)."""
        r %= self.e
        if gcd(r, self.e) != 1:
            raise ValueError("galois exponent must be prime to the conductor")
        counts = {}
        for i, c in enumerate(self.coeffs):
            if c:
                counts[(r * i) % self.e] = counts.get((r * i) % self.e, 0) + c
        return Cyclotomic.from_exponent_counts(self.e, counts)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.coeffs[0]

    # -- conductor minimization (for display/serialization) --------------------

    def minimized(self) -> "Cyclotomic":
        cur = self
        changed = True
        while changed:
            changed = False
            e = cur.e
            for q in prime_divisors(e):
                low = e // q
                if cur._descends_to(low):
                    cur = cur._rewrite(low)
                    changed = True
                    break
        return cur

    def _descends_to(self, low: int) -> bool:
        e = self.e
        for r in range(1, e):
            if r % low == 1 % low and gcd(r, e) == 1 and r != 1:
                if self.galois(r) != self:
                    return False
        return True

    def _rewrite(self, low: int) -> "Cyclotomic":
        e = self.e
        step = e // low
        degL = _phi_degree(low)
        tab = _power_table(e)
        cols = [tab[(step * j) % e] for j in range(degL)]
        sol = linalg.solve(cols, [self.coeffs])
        if sol is None:  # descent test passed, so this is unreachable
            raise InvariantViolation(f"{self!r} does not descend to conductor {low}")
        return Cyclotomic(low, sol[0][0])

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        m = self.minimized()
        terms = [[i, c.numerator, c.denominator]
                 for i, c in enumerate(m.coeffs) if c]
        return {"conductor": m.e, "terms": terms}

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return f"Cyc({self.e}: {' + '.join(terms) or '0'})"

    # -- reduction mod 2 ---------------------------------------------------------

    def reduce_mod2(self, f: int | None = None) -> GF2m:
        """Image under the pinned ring map O_(2) -> GF(2^f).

        zeta of 2-power order maps to 1; zeta of odd order e' maps to the
        pinned primitive e'-th root of GF(2^f)*.  f defaults to the
        multiplicative order of 2 mod e', and must be a multiple of it.
        """
        e = self.e
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
        for c in self.coeffs:
            if c and c.denominator % 2 == 0:
                raise NotTwoIntegral(f"even denominator in {self!r}")
            if c and c.numerator % 2:
                acc ^= power
            power = field.mul(power, eta)
        return GF2m(f, acc)


def _coerce(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic(1, [Fraction(value)])
    raise TypeError(f"cannot coerce {value!r} to Cyclotomic")


@lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)
