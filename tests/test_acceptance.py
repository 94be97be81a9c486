"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated time bound is asserted.
"""

import random
import time

from workbench import blocks, modrep, pgroup, solver
from workbench.chartab import dixon_table
from workbench.cyclotomic import reduce_mod2
from workbench.gf2 import GF2Field
from workbench.groups import builtin_group
from workbench.pipeline import analyze_group
from workbench.perm import nu

from oracles import Cyclotomic, inner_product

_tables = {}


def table(name):
    if name not in _tables:
        _tables[name] = dixon_table(builtin_group(name))
    return _tables[name]


def report(num, desc):
    print(f"ACCEPTANCE {num:>2} PASS: {desc}")


def test_criterion_01_extension_census():
    t0 = time.monotonic()
    census3 = pgroup.census_degree2_extensions(pgroup.build_dihedral(3))
    assert [ty for ty, _ in census3] == ["a", "b", "c", "d"]
    for d in (4, 5, 6):
        census = pgroup.census_degree2_extensions(pgroup.build_dihedral(d))
        assert [ty for ty, _ in census] == ["a", "b", "c", "d", "e"], d
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"census took {elapsed:.1f}s"
    report(1, f"extension census 4/5/5/5 classes for d=3..6 in {elapsed:.2f}s")


def test_criterion_02_table1_reproduction():
    t0 = time.monotonic()
    for d in (4, 5, 6):
        frame = pgroup.build_dihedral(d)
        for ty in ("a", "b", "c", "d", "e"):
            ext = pgroup.build_extension(frame, ty)
            rows = pgroup.eclass_table(ext)
            expected = pgroup.expected_table1_rows(d, ty)
            assert len(rows) == len(expected), (d, ty)
            for (label, inv, cname, _sz), (elabel, _spec, einv, ecname) in zip(rows, expected):
                assert (label, inv, cname) == (elabel, einv, ecname), (d, ty, label)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"table1 took {elapsed:.1f}s"
    report(2, f"coset-class table exact for d=4,5,6 x all types in {elapsed:.2f}s")


def test_criterion_03_reality_patterns():
    for d in (4, 5, 6):
        frame = pgroup.build_dihedral(d)
        for ty in ("a", "b", "c", "d", "e"):
            ext = pgroup.build_extension(frame, ty)
            got = pgroup.reality_pattern(ext)
            want = pgroup.expected_reality(d, ty)
            assert got == want, (d, ty)
            for name, (real, strong) in got.items():
                if strong:
                    assert real, (d, ty, name)
    report(3, "reality/strong-reality patterns equal the reference lists, d=4,5,6")


def test_criterion_04_signed_sum():
    t0 = time.monotonic()
    for d in range(1, 13):
        counts = {}
        for mask in range(1 << d):
            total = sum((1 if (mask >> j) & 1 else -1) * (1 << j) for j in range(d))
            counts[total] = counts.get(total, 0) + 1
        for m in range(-(1 << d) + 1, 1 << d, 2):
            assert counts.get(m) == 1
            sol = solver.signed_sum_decompose(m, d)
            assert sum(e * (1 << j) for j, e in enumerate(sol)) == m
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"signed sums took {elapsed:.2f}s"
    report(4, f"signed power sums unique+correct for all odd |m| < 2^d, d <= 12 in {elapsed:.2f}s")


def test_criterion_05_table2():
    t0 = time.monotonic()
    with_flag = solver.verify_table2(d_values=(3, 4, 5, 6), tiebreak=True)
    assert with_flag["ok"]
    assert with_flag["populated"] == 17 and with_flag["excluded"] == 13
    unique = [c for c in with_flag["cells"] if c["status"] == "unique"]
    assert all(c["golden_match"] for c in unique)
    without = solver.verify_table2(d_values=(3, 4, 5, 6), tiebreak=False)
    assert without["ok"]
    corner = [(c["morita"], c["etype"], c["d"]) for c in without["cells"]
              if c["status"] == "ambiguous"]
    assert sorted(corner) == [("iii", "a", 3), ("iv", "a", 3), ("vi", "a", 3)]
    assert all(len(c["solutions"]) == 2 for c in without["cells"]
               if c["status"] == "ambiguous")
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"table2 took {elapsed:.1f}s"
    report(5, f"classification table: 17 unique golden rows, 13 infeasible cells, |D|=8 corner ambiguous without tiebreak, in {elapsed:.2f}s")


def test_criterion_06_psl27_end_to_end():
    t0 = time.monotonic()
    rep = analyze_group("psl27")
    assert rep["mismatches"] == []
    assert sorted(rep["degrees"]) == [1, 3, 3, 6, 7, 8]
    degs = sorted(b["degrees"] for b in rep["blocks"])
    assert degs == [[1, 3, 3, 6, 7], [8]]
    principal = next(b for b in rep["blocks"] if b["is_principal"])
    assert principal["defect_group_order"] == 8
    assert principal["defect_group_dihedral"] is True
    assert principal["etype"] == "principal"  # E = D, treated as type (a)
    fs_by_degree = sorted(zip(rep["degrees"], rep["fs_vector"]))
    assert fs_by_degree == [(1, 1), (3, 0), (3, 0), (6, 1), (7, 1), (8, 1)]
    assert rep["involution_count"] == 22
    assert principal["komega_dim"] == 14
    assert principal["meataxe"] == [(1, 2), (3, 2), (3, 2)]
    assert principal["meataxe"] == principal["predicted"]
    assert len(principal["summand_dims"]) == 4
    assert sorted(principal["summand_multiplicities"]) == [1, 1, 2]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"psl27 took {elapsed:.1f}s"
    report(6, f"PSL(2,7) end-to-end (blocks, FS ++00, cut 14, factors 2/2/2, 4 summands with one isomorphic pair) in {elapsed:.2f}s")


def test_criterion_07_a7_end_to_end():
    t0 = time.monotonic()
    rep = analyze_group("a7")
    assert rep["mismatches"] == []
    principal = next(b for b in rep["blocks"] if b["is_principal"])
    assert principal["degrees"] == [1, 14, 15, 21, 35]
    assert principal["fs_height0"] == "++++" and principal["fs_family"] == "+"
    assert principal["table2_row"].startswith("A7")
    other = next(b for b in rep["blocks"] if not b["is_principal"])
    assert other["degrees"] == [6, 10, 10, 14]
    assert other["defect_group_dihedral"] is False  # excluded from matching
    assert other.get("table2_row") is None
    assert principal["simple_dims"] == [1, 14, 20]
    assert principal["meataxe"] == [(1, 4), (14, 3), (20, 2)]
    assert principal["meataxe"] == principal["predicted"]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"a7 took {elapsed:.1f}s"
    report(7, f"A7 end-to-end (principal all +1, multiplicities (4,3,2) on dims (1,14,20); Klein block excluded) in {elapsed:.2f}s")


def test_criterion_08_s5_end_to_end():
    t0 = time.monotonic()
    rep = analyze_group("s5")
    assert rep["mismatches"] == []
    principal = next(b for b in rep["blocks"] if b["is_principal"])
    assert principal["degrees"] == [1, 1, 5, 5, 6]
    assert principal["fs_height0"] == "++++" and principal["fs_family"] == "+"
    assert principal["table2_row"] == "PGL(2,q) q=1 mod 4 (principal)"
    assert principal["morita"] == "ii"
    assert principal["meataxe"] == principal["predicted"] == [(1, 6), (4, 3)]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"s5 took {elapsed:.1f}s"
    report(8, f"S5 end-to-end (all +1, type-(ii) multiplicities (6,3)) in {elapsed:.2f}s")


BUILTINS = ("d8", "d16", "sd16", "s3", "s4", "s5", "a7", "psl27", "pgl27",
            "psl2_5", "psl2_9", "psl2_11", "pgl2_5", "c3", "c7", "c16", "c2xs3")


def test_criterion_09_fs_count():
    for name in BUILTINS:
        T = table(name)
        total = sum(e * d for e, d in zip(T.fs_vector(), T.degrees))
        assert total == len(T.group.involution_indices()), name
    report(9, f"Frobenius-Schur count = |Omega| exactly on {len(BUILTINS)} builtin groups")


def test_criterion_10_o2_principal():
    for name in ("d8", "s4", "c2xs3"):
        T = table(name)
        G = T.group
        core = G.o2_core()
        t = next(i for i in G.involution_indices()
                 if i != G.identity_idx() and G.elements[i] in core)
        assert modrep.o2_principal_check(T, t), name
    report(10, "O_2 check: induced modules land in the principal block for D8, S4, C2xS3")


def test_criterion_11_property_suites():
    # character orthogonality, exact
    for name in ("s4", "sd16", "psl27", "a7", "pgl27"):
        T = table(name)
        for i in range(T.k):
            for l in range(i, T.k):
                assert inner_product(T, i, l) == (1 if i == l else 0), name
    # block idempotent partition of unity, exact
    for name in ("psl27", "s5", "a7", "s4"):
        T = table(name)
        total = [0] * T.k
        for b in blocks.block_partition(T):
            supp = blocks.block_idempotent_support(T, b)
            total = [a ^ s for a, s in zip(total, supp)]
        expect = [0] * T.k
        expect[T.group.class_of[T.group.identity_idx()]] = 1
        assert total == expect, name
    # defect-couple conjugacy uniqueness, exhaustive
    for name in ("psl27", "s5", "a7"):
        T = table(name)
        for b in blocks.block_partition(T):
            if b.is_real:
                assert blocks.couple_conjugacy_check(T, b), name
    # reduce_mod2 is a ring homomorphism on 10^4 random pairs in Z[zeta_e],
    # with the sums and products formed exactly in Q(zeta_e)
    rng = random.Random(20240810)
    conductors = [1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21]
    field_f = 12  # lcm of ord_2 mod the odd parts above
    F = GF2Field(field_f)

    def red(v):
        return reduce_mod2(v.e, [int(c) for c in v.coeffs], field_f)

    pairs = 0
    while pairs < 10_000:
        e = rng.choice(conductors)
        x = Cyclotomic.root(e, rng.randrange(e)) * rng.randrange(1, 6) + rng.randrange(-2, 3)
        y = Cyclotomic.root(e, rng.randrange(e)) + rng.randrange(-3, 4)
        assert red(x * y) == F.mul(red(x), red(y))
        assert red(x + y) == red(x) ^ red(y)
        pairs += 1
    report(11, "orthogonality, partition of unity, couple uniqueness, and 10^4 reduce_mod2 homomorphism pairs")
