"""Power-basis coordinates in Q(zeta_e), and their reduction modulo 2.

A character value at an element of order n lies in Z[zeta_n], whose power
basis 1, zeta_n, ..., zeta_n^(phi(n)-1) is a Z-basis, so the character
table keeps it as an int tuple (`power_coords`).  `reduce_mod2` reduces such
a tuple, divided by a power of 2, into GF(2^f) from the parity of each
coordinate: 2-power-order roots go to 1 and an odd-order root zeta_{e'} to
the pinned primitive e'-th root of GF(2^f)*, so all runs agree bit-for-bit.

`Cyclotomic` (dense Fraction coefficients) holds only the reported values;
`rewrite` moves a value into the power basis of a smaller conductor by one
rational solve (`linalg.solve`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import ConductorOverflow, InvariantViolation, NotTwoIntegral
from .gf2 import GF2Field, multiplicative_order_of_2

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
    if e > CONDUCTOR_CAP:
        raise ConductorOverflow(f"conductor {e} above cap {CONDUCTOR_CAP}")
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


def power_coords(e: int, counts) -> tuple:
    """Coordinates of sum over m of counts[m] * zeta_e^m in the power basis."""
    tab = _power_table(e)
    acc = [0] * _phi_degree(e)
    for m, c in counts.items():
        if c:
            for i, t in enumerate(tab[m % e]):
                if t:
                    acc[i] += c * t
    return tuple(acc)


@lru_cache(maxsize=None)
def _eta_powers(e: int, f: int) -> tuple:
    """Images in GF(2^f) of zeta_e^i, i < phi(e), under the pinned map.

    zeta of 2-power order maps to 1; zeta of odd order e' maps to the pinned
    primitive e'-th root omega of GF(2^f)*.  So with e = 2^a e', zeta_e maps
    to omega^(2^-a mod e'), the odd-order part of zeta_e."""
    a, eodd = 0, e
    while eodd % 2 == 0:
        eodd //= 2
        a += 1
    if f % multiplicative_order_of_2(eodd):
        raise ValueError(f"field degree {f} incompatible with order {eodd}")
    field = GF2Field(f)
    eta = field.pow(field.root_of_unity(eodd), pow(2, -a, eodd))
    out = [1]
    for _ in range(_phi_degree(e) - 1):
        out.append(field.mul(out[-1], eta))
    return tuple(out)


def reduce_mod2(e: int, coords, f: int, shift: int = 0) -> int:
    """Image in GF(2^f) of (sum coords[i] zeta_e^i) / 2^shift, coords ints.

    The power basis is a Z-basis of Z[zeta_e], so the quotient is 2-integral
    exactly when 2^shift divides every coordinate (else NotTwoIntegral), and
    its image is the sum of the images of the roots at odd quotients."""
    low, bit = (1 << shift) - 1, 1 << shift
    acc = 0
    for c, eta in zip(coords, _eta_powers(e, f)):
        if c & low:
            raise NotTwoIntegral(f"2^{shift} does not divide {tuple(coords)} in Z[zeta_{e}]")
        if c & bit:
            acc ^= eta
    return acc


class Cyclotomic:
    """A reported value: an element of Q(zeta_e) in the power basis of Q[x]/(Phi_e)."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != _phi_degree(e):
            raise ValueError("coefficient length != phi(e)")
        self.e = e
        self.coeffs = tuple(cs)

    def rewrite(self, low: int) -> "Cyclotomic":
        """The same value in the power basis of Q(zeta_low); it must lie there."""
        e = self.e
        if low == e:
            return self
        step = e // low
        degL = _phi_degree(low)
        tab = _power_table(e)
        cols = [tab[(step * j) % e] for j in range(degL)]
        sol = linalg.solve(cols, [self.coeffs])
        if sol is None:
            raise InvariantViolation(f"{self!r} does not descend to conductor {low}")
        return type(self)(low, sol[0][0])

    def to_json(self):
        terms = [[i, c.numerator, c.denominator]
                 for i, c in enumerate(self.coeffs) if c]
        return {"conductor": self.e, "terms": terms}

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return f"Cyc({self.e}: {' + '.join(terms) or '0'})"


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
