import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from oracles import bit_loop_mul_vec, matrix_inverse
from workbench import gf2
from workbench.errors import InvariantViolation
from workbench.gf2 import BitMatrix, GF2Field, Echelon


def _factor_int(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _poly_powmod(a, n, m):
    """a^n mod m in GF(2)[x], by repeated squaring."""
    out = 1
    a = gf2.poly_mod(a, m)
    while n:
        if n & 1:
            out = gf2.poly_mulmod(out, a, m)
        a = gf2.poly_mulmod(a, a, m)
        n >>= 1
    return out


def test_primitive_polys_are_primitive():
    # x must generate the full multiplicative group of GF(2^f)
    for f, m in gf2.PRIMITIVE_POLY.items():
        if f == 1:
            continue
        order = (1 << f) - 1
        assert _poly_powmod(2, order, m) == 1
        for q in _factor_int(order):
            assert _poly_powmod(2, order // q, m) != 1


def test_field_axioms_sample():
    rng = random.Random(1)
    for f in (2, 3, 4, 6):
        F = GF2Field(f)
        for _ in range(50):
            a, b, c = (rng.randrange(F.order) for _ in range(3))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)


def test_root_of_unity_gf8():
    F = GF2Field(3)
    w = F.root_of_unity(7)
    assert w != 1
    assert F.pow(w, 7) == 1


def _sympy_primes(f):
    """The distinct irreducible factors of f mod 2, from sympy, as bitmasks."""
    coeffs = [f >> i & 1 for i in range(f.bit_length() - 1, -1, -1)]
    _c, factors = Poly(coeffs, symbols("x"), modulus=2).factor_list()
    return sorted(int("".join(str(int(c) % 2) for c in p.all_coeffs()), 2)
                  for p, _m in factors)


def test_poly_primes_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        # random factors, some squared or raised to a higher even power,
        # times powers of x and x + 1
        f = 1 << rng.randrange(4)
        for _ in range(rng.randrange(3)):
            f = gf2.poly_mul(f, 0b11)
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 9)
            p = rng.getrandbits(deg) | 1 << deg
            for _ in range(rng.choice((1, 1, 2, 3, 4, 6))):
                f = gf2.poly_mul(f, p)
        primes = _sympy_primes(f)
        assert gf2.poly_primes(f) == primes, f
        idem = gf2.poly_idempotents(f)
        assert len(idem) == len(primes), f
        assert all(gf2.poly_mod(gf2.poly_mul(q, q), f) == q for q in idem), f


def test_bitmatrix_mul_against_naive():
    rng = random.Random(3)
    for _ in range(20):
        n, m, k = rng.randrange(1, 12), rng.randrange(1, 12), rng.randrange(1, 12)
        A = [[rng.getrandbits(1) for _ in range(m)] for _ in range(n)]
        B = [[rng.getrandbits(1) for _ in range(k)] for _ in range(m)]
        C = [[sum(A[i][t] * B[t][j] for t in range(m)) % 2 for j in range(k)]
             for i in range(n)]
        got = BitMatrix.from_lists(A) * BitMatrix.from_lists(B)
        assert got == BitMatrix.from_lists(C)


def test_bitmatrix_kernel():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randrange(1, 20), rng.randrange(1, 20)
        M = BitMatrix([rng.getrandbits(m) for _ in range(n)], m)
        ker = M.kernel()
        assert len(ker) == n - M.rank()
        for v in ker:
            assert M.mul_vec(v) == 0
        ech = Echelon()
        for v in ker:
            assert ech.add(v)  # kernel basis is independent


def test_bitmatrix_transpose():
    A = BitMatrix.from_lists([[0, 1], [1, 1]])
    assert A.transpose() == BitMatrix.from_lists([[0, 1], [1, 1]])


def test_export_roundtrip():
    rng = random.Random(11)
    M = BitMatrix([rng.getrandbits(37) for _ in range(9)], 37)
    assert BitMatrix.from_text(M.export_text()) == M


def test_echelon_solve():
    rng = random.Random(13)
    vecs = [rng.getrandbits(30) for _ in range(10)]
    # a dependent vector in the middle is skipped and takes no coordinate
    ech = Echelon(vecs[:5] + [vecs[1] ^ vecs[2]] + vecs[5:], 30)
    assert ech.vectors == vecs
    assert bin(ech.pivots).count("1") == len(ech) == 10
    assert ech.solve(vecs[0] ^ vecs[3] ^ vecs[7]) == 1 | 1 << 3 | 1 << 7
    assert ech.solve(0) == 0
    for _ in range(20):
        w = rng.getrandbits(30)
        r = ech.reduce(w)
        assert r & ech.pivots == 0
        assert (ech.solve(w) is None) == (r != 0)
        assert ech.add(w) == (r != 0)
    # the reduced basis: same span and pivots, each row clear of earlier pivots
    red = ech.reduced_basis(30)
    assert red.pivots == ech.pivots and len(red) == len(ech)
    seen = 0
    for r in red.vectors:
        assert r & seen == 0 and ech.solve(r) is not None
        seen |= r & -r
    assert seen == ech.pivots
    # a span solves only with coordinates, and only over its width
    with pytest.raises(InvariantViolation):
        Echelon(vecs).solve(vecs[0])
    assert ech.solve(1 << 30) is None
    with pytest.raises(ValueError):
        ech.add(1 << 30)


def test_pow_of_zero():
    for f in (1, 2, 3, 5):
        F = GF2Field(f)
        assert F.pow(0, 0) == 1
        for n in (1, 2, 5, F.order - 1, F.order):
            assert F.pow(0, n) == 0
        assert F.pow(1, 5) == 1


def _dm(rows, ncols):
    K = GF(2)
    return DomainMatrix([[K((r >> j) & 1) for j in range(ncols)] for r in rows],
                        (len(rows), ncols), K)


def _bits(dm_rows):
    return [sum((int(x) % 2) << j for j, x in enumerate(r)) for r in dm_rows]


def _row_space(rows, ncols):
    """The canonical basis of a row space: sympy's reduced row echelon form."""
    if not rows:
        return []
    return [r for r in _bits(_dm(rows, ncols).rref()[0].to_list()) if r]


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 10))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    return BitMatrix(rows, m)


@settings(max_examples=80, deadline=None)
@given(_matrices(), st.integers(min_value=0))
def test_elimination_matches_sympy(M, target):
    n, m = M.nrows, M.ncols
    ref = _dm(M.rows, m)
    rank = ref.rank()
    assert M.rank() == rank
    # kernel: same left null space as sympy's null space of M^T
    ker = M.kernel()
    assert len(ker) == n - rank
    assert _row_space(ker, n) == _row_space(_bits(ref.transpose().nullspace().to_list()), n)
    # solve: a mask over the independent rows, None exactly off the row space
    ech = Echelon(M.rows, m)
    v = target % (1 << m)
    mask = ech.solve(v)
    inside = _dm(M.rows + [v], m).rank() == rank
    assert (mask is not None) == inside
    if inside:
        total = 0
        for t, b in enumerate(ech.vectors):
            if (mask >> t) & 1:
                total ^= b
        assert total == v
    # the oracle inverse
    if n == m == rank:
        assert matrix_inverse(M).rows == _bits(ref.inv().to_list())
    elif n == m:
        with pytest.raises(ZeroDivisionError):
            matrix_inverse(M)


def test_multiplicative_order_of_2():
    assert gf2.multiplicative_order_of_2(7) == 3
    assert gf2.multiplicative_order_of_2(21) == 6
    assert gf2.multiplicative_order_of_2(1) == 1


@st.composite
def _spans(draw):
    """(width, vectors, probes): vectors of up to `width` bits, some of
    them sums of earlier ones, and probes to reduce."""
    width = draw(st.integers(1, 300))
    word = st.integers(0, (1 << width) - 1)
    vectors = []
    for pick in draw(st.lists(st.integers(0, (1 << 12) - 1), max_size=24)):
        if pick & 1 and vectors:  # a sum of earlier vectors, often dependent
            vectors.append(reduce(xor, (v for t, v in enumerate(vectors) if pick >> t & 1), 0))
        else:
            vectors.append(draw(word))
    return width, vectors, draw(st.lists(word, max_size=8)) + vectors[:4]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_spans())
def test_coordinate_tracking_changes_no_elimination(span):
    # a span built with a width carries coordinates above it; the rows below
    # it, pivots, vectors and reductions are those of the span without them
    width, vectors, probes = span
    free, tracked = Echelon(vectors), Echelon(vectors, width)
    low = (1 << width) - 1
    assert list(free.rows.items()) == [(p, r & low) for p, r in tracked.rows.items()]
    assert free.pivots == tracked.pivots and free.vectors == tracked.vectors
    assert free.reduced_basis(width).vectors == tracked.reduced_basis(width).vectors
    for w in probes:
        assert free.reduce(w) == tracked.reduce(w)
        mask = tracked.solve(w)
        assert (mask is None) == (free.reduce(w) != 0)
        if mask is not None:
            assert reduce(xor, (v for t, v in enumerate(tracked.vectors) if mask >> t & 1), 0) == w


@pytest.mark.parametrize("n", [1, 8, 64, 232])
def test_mul_vec_routes_match_bit_loop(n):
    # popcounts on both sides of DENSE_BITS, where mul_vec changes route
    rng = random.Random(n)
    M = BitMatrix([rng.getrandbits(n + 5) for _ in range(n)], n + 5)
    for k in sorted({min(k, n) for k in (0, 1, 15, 16, 17, n)}):
        v = reduce(xor, (1 << t for t in rng.sample(range(n), k)), 0)
        assert M.mul_vec(v) == bit_loop_mul_vec(M, v), (n, k)
    A = BitMatrix([reduce(xor, (1 << t for t in rng.sample(range(n), min(k, n))), 0)
                   for k in (0, 1, 15, 16, 17, n)], n)
    assert (A * M).rows == [bit_loop_mul_vec(M, r) for r in A.rows]
    # a vector wider than the matrix raises on either route
    for v in (1 << n, (1 << (n + gf2.DENSE_BITS)) - 1):
        with pytest.raises(IndexError):
            M.mul_vec(v)
