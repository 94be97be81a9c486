"""`workbench.linalg` against sympy's `DomainMatrix` over GF(p) and over QQ,
and Dixon's prime test against `sympy.isprime`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ, isprime
from sympy.polys.matrices import DomainMatrix

from workbench import linalg
from workbench.chartab import _is_prime

FIELDS = [61, 337, 1321, None]          # None: the rationals


def _domain(p):
    return QQ if p is None else GF(p)


def _dm(rows, ncols, p):
    K = _domain(p)
    return DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), ncols), K)


def _to_list(M, p):
    """Entries of a sympy matrix as Fractions, or as residues in 0..p-1."""
    K = _domain(p)
    if p is None:
        return [[Fraction(int(K.to_sympy(x).p), int(K.to_sympy(x).q)) for x in r]
                for r in M.to_list()]
    return [[K.to_int(x) % p for x in r] for r in M.to_list()]


def _row_space(rows, ncols, p):
    """The canonical basis of a row space: sympy's reduced row echelon form."""
    if not rows:
        return []
    return [r for r in _to_list(_dm(rows, ncols, p).rref()[0], p) if any(r)]


def _reduce(x, p):
    return x if p is None else x % p


@st.composite
def _systems(draw):
    """An n x m matrix A with small entries (so ranks drop often) and targets
    that are either A y or A y plus a random vector."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    entries = st.integers(-2, 2)
    A = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        y = draw(st.lists(entries, min_size=m, max_size=m))
        t = [sum(a * b for a, b in zip(row, y)) for row in A]
        if draw(st.booleans()):
            t = [x + e for x, e in zip(t, draw(st.lists(entries, min_size=n, max_size=n)))]
        targets.append(t)
    return A, targets


@pytest.mark.parametrize("p", FIELDS, ids=lambda p: f"GF{p}" if p else "QQ")
@settings(max_examples=60, deadline=None)
@given(system=_systems())
def test_elimination_matches_sympy(p, system):
    A, targets = system
    n, m = len(A), len(A[0])
    ref = _dm(A, m, p)
    ref_rows, ref_pivots = ref.rref()
    rank = len(ref_pivots)
    # rref: the same reduced rows (zero rows last) and pivot columns
    rows, pivots = linalg.rref(A, m, p)
    assert pivots == list(ref_pivots)
    assert rows == _to_list(ref_rows, p)
    # solve: every target reproduced with free coordinates 0, or None exactly
    # when some target is off the column space
    cols = [list(c) for c in zip(*A)]
    sol = linalg.solve(cols, targets, p)
    inside = all(_dm([r + [x] for r, x in zip(A, t)], m + 1, p).rank() == rank
                 for t in targets)
    assert (sol is not None) == inside
    if inside:
        ys, sol_pivots = sol
        assert sol_pivots == list(ref_pivots)
        for y, t in zip(ys, targets):
            assert all(y[c] == 0 for c in range(m) if c not in sol_pivots)
            assert [_reduce(sum(a * b for a, b in zip(r, y)), p) for r in A] == \
                [_reduce(x, p) for x in t]
    # nullspace: spans sympy's null space
    ker = linalg.nullspace(A, p)
    assert len(ker) == m - rank
    assert _row_space(ker, m, p) == _row_space(_to_list(ref.nullspace(), p), m, p)


@pytest.mark.parametrize("p", FIELDS[:-1], ids=lambda p: f"GF{p}")
@settings(max_examples=60, deadline=None)
@given(system=_systems())
def test_mod_p_rref_is_rational_rref_mod_p(p, system):
    # a rank can only drop mod p; with the same pivot columns, the reduced
    # rows over Q (whose denominators are then prime to p) reduce to the
    # reduced rows mod p
    A, _targets = system
    m = len(A[0])
    rows, pivots = linalg.rref(A, m, p)
    q_rows, q_pivots = linalg.rref(A, m)
    assert len(pivots) <= len(q_pivots)
    if pivots == q_pivots:
        assert rows == [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
                        for row in q_rows]


def test_is_prime_matches_sympy():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if isprime(n)]
