"""Builtin group catalog.

Every builtin is constructed from explicit standard generators:
dihedral/semidihedral groups act on Z_n, symmetric and alternating groups
use adjacent cycles, PSL/PGL(2,q) act as Mobius maps on the projective
line over GF(q) (q odd, q <= 11).
"""

from __future__ import annotations

import re

from .errors import InvariantViolation
from .perm import PermGroup, check_cap, generate, parse_cycles

_Q_ALLOWED = (3, 5, 7, 9, 11)


def _gf(q: int):
    """Addition/multiplication tables for GF(q), q an odd prime or 9."""
    if q == 9:
        # GF(9) = GF(3)[x]/(x^2 + 1); element a + b*x encoded as a + 3b
        def enc(a, b):
            return (a % 3) + 3 * (b % 3)

        add = [[enc((i % 3) + (j % 3), (i // 3) + (j // 3)) for j in range(9)]
               for i in range(9)]
        ab = [(i % 3, i // 3) for i in range(9)]
        mul = [[enc(a * c - b * d, a * d + b * c) for c, d in ab] for a, b in ab]
        return add, mul
    add = [[(i + j) % q for j in range(q)] for i in range(q)]
    mul = [[(i * j) % q for j in range(q)] for i in range(q)]
    return add, mul


def _mobius_perm(mat, q: int) -> tuple:
    """Permutation of P^1(GF(q)) = {0..q-1, infinity=q} induced by a 2x2 matrix."""
    add, mul = _gf(q)
    inv = [0] + [mul[i].index(1) for i in range(1, q)]
    a, b, c, d = mat
    images = []
    for z in range(q):
        num = add[mul[a][z]][b]
        den = add[mul[c][z]][d]
        images.append(q if den == 0 else mul[num][inv[den]])
    # image of infinity: a/c
    images.append(q if c == 0 else mul[a][inv[c]])
    if sorted(images) != list(range(q + 1)):
        raise InvariantViolation("Mobius map does not permute the projective line")
    return tuple(images)


def _primitive_element(q: int) -> int:
    _add, mul = _gf(q)
    for x in range(2, q):
        y, n = x, 1
        while y != 1:
            y, n = mul[y][x], n + 1
        if n == q - 1:  # x has order q - 1
            return x
    raise ValueError(f"no primitive element for q={q}")


def _pl2(q: int, general: bool) -> list:
    """PSL(2,q) on z -> z + 1, z -> -1/z, z -> nu^2 z; PGL(2,q) takes
    z -> nu z (a non-square determinant) for the last, nu primitive."""
    if q not in _Q_ALLOWED:
        name = "PGL" if general else "PSL"
        raise ValueError(f"builtin {name}(2,q) supports odd q <= 11, got {q}")
    add, mul = _gf(q)
    nu = _primitive_element(q)
    return [_mobius_perm((1, 1, 0, 1), q), _mobius_perm((0, add[1].index(0), 1, 0), q),
            _mobius_perm((nu if general else mul[nu][nu], 0, 0, 1), q)]


def _dihedral(n: int) -> list:
    """Dihedral group of order n acting on Z_{n/2}."""
    m = n // 2
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return [rot, ref]


def _semidihedral16() -> list:
    # <r, x | r^8 = x^2 = 1, r^x = r^3> acting on Z_8
    r = tuple((i + 1) % 8 for i in range(8))
    x = tuple((3 * i) % 8 for i in range(8))
    return [r, x]


def _cyclic(n: int, cap: int | None) -> list:
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    check_cap(n, cap)
    return [tuple((i + 1) % n for i in range(n))]


def _direct_product(parts) -> list:
    """Direct product acting on the disjoint union of the factors' points."""
    degrees = [max(len(g) for g in gens) for gens in parts]
    degree = sum(degrees)
    out = []
    offset = 0
    for gens, n in zip(parts, degrees):
        for g in gens:
            images = list(range(degree))
            for i, im in enumerate(g):
                images[offset + i] = offset + im
            out.append(tuple(images))
        offset += n
    return out


def builtin_group(name: str, cap: int | None = None) -> PermGroup:
    """Look up a builtin group by its catalog name; 'AxB' builds products.

    Every builtin is closed by one `generate` call, so `cap` bounds it; a
    cyclic factor larger than `cap` is refused before it is built."""
    return generate(_builtin_gens(name.lower(), cap), cap=cap)


def _builtin_gens(name: str, cap: int | None) -> list:
    if "x" in name and not name.startswith("x"):
        parts = name.split("x")
        if all(parts):
            return _direct_product([_builtin_gens(p, cap) for p in parts])
    if name == "d8":
        return _dihedral(8)
    if name == "d16":
        return _dihedral(16)
    if name == "sd16":
        return _semidihedral16()
    if name == "s3":
        return [parse_cycles("(1 2 3)"), parse_cycles("(1 2)")]
    if name == "s4":
        return [parse_cycles("(1 2 3 4)"), parse_cycles("(1 2)")]
    if name == "s5":
        return [parse_cycles("(1 2 3 4 5)"), parse_cycles("(1 2)")]
    if name == "a7":
        return [parse_cycles("(1 2 3)"), parse_cycles("(3 4 5 6 7)", degree=7)]
    if name == "psl27":
        return _pl2(7, False)
    if name == "pgl27":
        return _pl2(7, True)
    m = re.fullmatch(r"c(\d+)", name)
    if m:
        return _cyclic(int(m.group(1)), cap)
    m = re.fullmatch(r"psl2q\((\d+)\)|psl2_?(\d+)", name)
    if m:
        return _pl2(int(m.group(1) or m.group(2)), False)
    m = re.fullmatch(r"pgl2q\((\d+)\)|pgl2_?(\d+)", name)
    if m:
        return _pl2(int(m.group(1) or m.group(2)), True)
    raise ValueError(f"unknown builtin group: {name}")

