"""Regenerate the benchmark's generator files and reference data.

    python3 perfbench/make_reference.py groups      # rewrite perfbench/groups/*.txt
    python3 perfbench/make_reference.py reference   # rewrite perfbench/reference.json

The generator files are built here from their textbook definitions, and each
group order is checked against sympy when it is installed.  The reference
data is the output of the workbench at the commit it was made on, with
seed 0; the benchmark compares every later run against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GROUP_DIR = HERE / "groups"
REFERENCE = HERE / "reference.json"


def _mobius(q: int, a: int, b: int, c: int, d: int) -> list:
    """z -> (a z + b) / (c z + d) on P^1(F_q), q prime; infinity is point q."""
    images = []
    for z in range(q):
        den = (c * z + d) % q
        images.append(q if den == 0 else (a * z + b) * pow(den, -1, q) % q)
    images.append(q if c % q == 0 else a * pow(c, -1, q) % q)
    return images


def _primitive_root(q: int) -> int:
    return next(x for x in range(2, q)
                if len({pow(x, k, q) for k in range(1, q)}) == q - 1)


def _psl2_gens(q: int) -> list:
    return [_mobius(q, 1, 1, 0, 1), _mobius(q, 0, q - 1, 1, 0)]


def _pgl2_gens(q: int) -> list:
    return _psl2_gens(q) + [_mobius(q, _primitive_root(q), 0, 0, 1)]


def _from_cycles(degree: int, *cycles) -> list:
    images = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            images[x - 1] = cyc[(i + 1) % len(cyc)] - 1
    return images


def _symmetric(n: int) -> list:
    return [_from_cycles(n, tuple(range(1, n + 1))), _from_cycles(n, (1, 2))]


def _product(*factors) -> list:
    degree = sum(len(f[0]) for f in factors)
    gens, offset = [], 0
    for f in factors:
        for g in f:
            images = list(range(degree))
            for i, im in enumerate(g):
                images[offset + i] = offset + im
            gens.append(images)
        offset += len(f[0])
    return gens


def _psl2_9_gens() -> list:
    sys.path.insert(0, str(HERE.parent / "src"))
    from workbench.groups import builtin_group
    return [list(g) for g in builtin_group("psl2_9").generators]


# name -> (source line, order, function returning the generators)
GROUPS = {
    "psl2_9": ("PSL(2,9) on P^1(F_9): the generators of the workbench "
               "builtin psl2_9", 360, _psl2_9_gens),
    "psl2_11": ("PSL(2,11) on P^1(F_11): z+1, -1/z", 660, lambda: _psl2_gens(11)),
    "psl2_13": ("PSL(2,13) on P^1(F_13): z+1, -1/z", 1092, lambda: _psl2_gens(13)),
    "psl2_17": ("PSL(2,17) on P^1(F_17): z+1, -1/z", 2448, lambda: _psl2_gens(17)),
    "psl2_19": ("PSL(2,19) on P^1(F_19): z+1, -1/z", 3420, lambda: _psl2_gens(19)),
    "psl2_23": ("PSL(2,23) on P^1(F_23): z+1, -1/z", 6072, lambda: _psl2_gens(23)),
    "pgl2_11": ("PGL(2,11) on P^1(F_11): z+1, -1/z, 2z", 1320, lambda: _pgl2_gens(11)),
    "pgl2_13": ("PGL(2,13) on P^1(F_13): z+1, -1/z, 2z", 2184, lambda: _pgl2_gens(13)),
    "pgl2_17": ("PGL(2,17) on P^1(F_17): z+1, -1/z, 3z", 4896, lambda: _pgl2_gens(17)),
    "S6": ("S6 on 6 points: (1..6), (1 2)", 720, lambda: _symmetric(6)),
    "S7": ("S7 on 7 points: (1..7), (1 2)", 5040, lambda: _symmetric(7)),
    "a7": ("A7 on 7 points: (1 2 3), (3 4 5 6 7)", 2520,
           lambda: [_from_cycles(7, (1, 2, 3)), _from_cycles(7, (3, 4, 5, 6, 7))]),
    "s5xs3": ("S5 x S3 on 5 + 3 points", 720,
              lambda: _product(_symmetric(5), _symmetric(3))),
    "psl2_5xpsl2_5": ("PSL(2,5) x PSL(2,5) on 6 + 6 points, 25 classes", 3600,
                      lambda: _product(_psl2_gens(5), _psl2_gens(5))),
    "M11": ("M11 on 11 points: ATLAS standard generators "
            "(1..11), (3 7 11 8)(4 10 5 6)", 7920,
            lambda: [_from_cycles(11, tuple(range(1, 12))),
                     _from_cycles(11, (3, 7, 11, 8), (4, 10, 5, 6))]),
}


def _cycle_text(images: list) -> str:
    seen, parts = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = images[x]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def _sympy_order(gens: list):
    try:
        from sympy.combinatorics import Permutation, PermutationGroup
    except ImportError:
        return None
    return PermutationGroup([Permutation(g) for g in gens]).order()


def write_groups():
    GROUP_DIR.mkdir(exist_ok=True)
    for name, (source, order, build) in GROUPS.items():
        gens = build()
        got = _sympy_order(gens)
        if got is not None and got != order:
            raise SystemExit(f"{name}: sympy order {got} != stated {order}")
        degree = len(gens[0])
        lines = [f"# source: {source}", f"# order: {order}", f"# degree: {degree}"]
        lines += [_cycle_text(g) for g in gens]
        (GROUP_DIR / f"{name}.txt").write_text("\n".join(lines) + "\n")
        print(f"{name}: order {order}, degree {degree}, sympy {got}")


def write_reference():
    import run
    ref = run.build_reference()
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    what = sys.argv[1:] or ["groups", "reference"]
    if "groups" in what:
        write_groups()
    if "reference" in what:
        write_reference()
