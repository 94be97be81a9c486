"""Exact Gauss–Jordan elimination over GF(p), or over Q when p is None.

The one eliminator for dense matrices over a prime field or the rationals:
Dixon's eigenspaces and coordinates mod p (`chartab`), conductor rewrites
(`cyclotomic`) and simple-module dimensions (`pipeline`).  Matrices are
lists of rows; over Q every entry becomes a `Fraction`.  GF(2) matrices
have their own bit-packed eliminator, `gf2.Echelon`.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows, ncols: int, p: int | None = None):
    """Reduced row echelon form of `rows`, pivoting in the first `ncols`
    columns only; the columns past them (right-hand sides) are carried along.

    Returns (rows, pivots): as many rows as given, row i holding the pivot
    in column pivots[i], and every later row zero in the first `ncols`
    columns.
    """
    rows = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        top = rows[r] = [x * inv for x in rows[r]] if p is None else [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = ([x - f * y for x, y in zip(row, top)] if p is None
                           else [(x - f * y) % p for x, y in zip(row, top)])
        pivots.append(c)
    return rows, pivots


def solve(cols, targets, p: int | None = None):
    """Solve sum_j y_j cols[j] = t for every t in `targets` in one elimination.

    Free coordinates are 0.  Returns (ys, pivots), ys[i] solving targets[i]
    and pivots the columns of a maximal independent subset of `cols`, or
    None when some target lies outside the span of `cols`.
    """
    n = len(cols)
    rows, pivots = rref(zip(*cols, *targets), n, p)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    ys = [[0] * n for _ in targets]
    for row, c in zip(rows, pivots):
        for y, x in zip(ys, row[n:]):
            y[c] = x
    return ys, pivots


def nullspace(rows, p: int | None = None):
    """Basis of {v : rows . v = 0}: one vector per free column c, with
    v[c] = 1 and 0 at the other free columns."""
    n = len(rows[0])
    rows, pivots = rref(rows, n, p)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[fc] if p is None else -row[fc] % p
        basis.append(v)
    return basis
