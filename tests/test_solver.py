import pytest

from workbench import pgroup, solver
from workbench.errors import InvariantViolation, NoSolution

from oracles import enumerate_sign_assignments, signed_sum_solutions


def test_signed_sum_examples():
    assert solver.signed_sum_decompose(1, 1) == (1,)
    assert solver.signed_sum_decompose(3, 3) == (1, -1, 1)
    assert solver.signed_sum_decompose(-5, 3) == (1, -1, -1)


def test_signed_sum_exhaustive_uniqueness():
    # all odd |m| < 2^d, d <= 12: existence + uniqueness + correctness
    for d in range(1, 13):
        counts = {}
        for mask in range(1 << d):
            total = sum((1 if (mask >> j) & 1 else -1) * (1 << j) for j in range(d))
            counts[total] = counts.get(total, 0) + 1
        for m in range(-(1 << d) + 1, 1 << d, 2):
            assert counts.get(m) == 1, (m, d)
            sol = solver.signed_sum_decompose(m, d)
            assert sum(e * (1 << j) for j, e in enumerate(sol)) == m


def test_signed_sum_matches_bruteforce_oracle():
    for d in (2, 3, 4, 6):
        for m in range(-(1 << d) + 1, 1 << d, 2):
            assert signed_sum_solutions(m, d) == [solver.signed_sum_decompose(m, d)]


def test_signed_sum_bad_inputs():
    with pytest.raises(NoSolution):
        solver.signed_sum_decompose(2, 3)
    with pytest.raises(NoSolution):
        solver.signed_sum_decompose(9, 3)


def test_build_profile_rows():
    rows = dict(solver.build_profile("i", 4).symbolic_rows())
    assert rows["chi_1"] == [1, "e", 1, "e'", "e_2", 1]
    rows6 = dict(solver.build_profile("vi", 3).symbolic_rows())
    assert rows6["chi_3"][:3] == [0, 1, 0]
    rows4 = dict(solver.build_profile("iv", 3).symbolic_rows())
    assert rows4["chi^(0)"][:3] == [0, 1, 0]


def test_profile_column_names():
    p = solver.build_profile("ii", 5)
    assert p.column_names() == ["M_1", "M_2", "s_1", "t", "s_2", "s_3", "s"]


def test_solve_unique_cells():
    for d in (3, 4, 5, 6):
        sols = solver.solve("i", "b", d)
        assert len(sols) == 1
        s = sols[0]
        assert solver.sign_string(s.eps_height0) == "++++"
        assert all(e == 1 for e in s.eps_family[:-1])
        assert s.eps_family[-1] == -1
        assert s.multiplicities == (2,)


def test_solve_vi_a_3():
    sols = solver.solve("vi", "a", 3)
    assert len(sols) == 1
    assert solver.sign_string(sols[0].eps_height0) == "++00"
    assert sols[0].eps_family == (1,)
    assert sols[0].multiplicities == (2, 2, 2)


def test_solve_tiebreak_corner():
    for ty in ("iii", "iv", "vi"):
        with_flag = solver.solve(ty, "a", 3, tiebreak=True)
        without = solver.solve(ty, "a", 3, tiebreak=False)
        assert len(with_flag) == 1
        assert len(without) == 2
        pats = {(solver.sign_string(s.eps_height0), s.eps_family) for s in without}
        assert (solver.sign_string(with_flag[0].eps_height0), with_flag[0].eps_family) in pats


def test_solve_infeasible_cells():
    for ty, et in [("ii", "c"), ("ii", "d"), ("iii", "c"), ("iii", "d"),
                   ("iii", "b"), ("iv", "b"), ("vi", "b"),
                   ("iv", "c"), ("iv", "d"), ("vi", "d")]:
        for d in (3, 4, 5):
            assert solver.solve(ty, et, d) == [], (ty, et, d)
    for ty in ("iii", "iv", "vi"):
        for d in (4, 5):
            assert solver.solve(ty, "e", d) == [], (ty, d)


def test_type_e_cells():
    for ty, mults in (("i", ((1 << 2) + 2,)), ("ii", (6, 3)), ("v", (6, 3, 3))):
        sols = solver.solve(ty, "e", 4)
        assert len(sols) == 1
        s = sols[0]
        assert solver.sign_string(s.eps_height0) == "++++"
        assert s.eps_family == (1, 0)
        assert s.multiplicities == mults


def test_principal_treated_as_type_a():
    assert solver.solve("vi", "principal", 3) == solver.solve("vi", "a", 3)


def test_predicted_multiplicities_examples():
    p = solver.build_profile("iv", 3)
    sols = solver.solve("iv", "a", 3)
    assert solver.predicted_multiplicities(sols[0], p) == (4, 3, 2)
    p_d = solver.build_profile("v", 5)
    sols_d = solver.solve("v", "d", 5)
    assert solver.predicted_multiplicities(sols_d[0], p_d) == (0, 0, 0)


def test_verify_table2_with_tiebreak():
    report = solver.verify_table2(d_values=(3, 4, 5, 6))
    assert report["ok"]
    assert report["populated"] == 17
    assert report["excluded"] == 13
    unique_cells = [c for c in report["cells"] if c["status"] == "unique"]
    assert all(c["golden_match"] for c in unique_cells)


def test_verify_table2_without_tiebreak():
    report = solver.verify_table2(d_values=(3, 4), tiebreak=False)
    assert report["ok"]
    amb = [(c["morita"], c["etype"], c["d"]) for c in report["cells"]
           if c["status"] == "ambiguous"]
    assert sorted(amb) == [("iii", "a", 3), ("iv", "a", 3), ("vi", "a", 3)]


def test_count_real_characters():
    for d in (3, 4, 5):
        assert solver.count_real_characters("i", "a", d) == 2 ** (d - 2) + 3
        assert solver.count_real_characters("i", "c", d) == 2 ** (d - 2) + 1
    for d in (4, 5):
        assert solver.count_real_characters("i", "e", d) == 2 ** (d - 2) + 3 - 2 ** (d - 3)


def test_count_real_characters_cross_check_with_column_census():
    # The number of real characters equals the number of real columns;
    # the 2-local census counts
    # the l(B) columns at x = 1 as real; the solver knows which of them are
    # actually nonreal (a dual pair of Brauer characters), so the census
    # count exceeds the character count by exactly that correction.
    fusion = {1: "bb", 2: "ab", 3: "aa"}
    for ty in solver.MORITA_TYPES:
        l = solver.build_profile(ty, 3).l
        for et in solver.EXT_TYPES:
            for d in (3, 4, 5):
                if et == "e" and d < 4:
                    continue
                sols = solver.solve(ty, et, d)
                if len(sols) != 1:
                    continue
                chars = solver.count_real_characters(ty, et, d)
                brauer = solver.nonreal_brauer_count(ty, et, d)
                census = pgroup.count_real_columns(d, et, fusion[l])
                assert brauer in (0, 2)
                assert chars + brauer == census["real"], (ty, et, d)


def test_galois_pairing_invariant():
    # families flagged nonreal have even size 2^j >= 2; F_0 is never flagged
    for ty in solver.MORITA_TYPES:
        for et in solver.EXT_TYPES:
            for d in (3, 4, 5, 6):
                if et == "e" and d < 4:
                    continue
                for s in solver.solve(ty, et, d):
                    for j, e in enumerate(s.eps_family):
                        if e == 0:
                            assert j >= 1
                    assert sum(1 for e in s.eps_height0 if e == 0) % 2 == 0


def test_solver_reaches_d12():
    for d in (12, solver.MAX_D):
        sols = solver.solve("v", "b", d)
        assert len(sols) == 1
        assert sols[0].multiplicities == (2, 1, 1)
        assert sols[0].eps_family == (1,) * (d - 3) + (-1,)


@pytest.mark.parametrize("tiebreak", [True, False])
def test_closed_form_matches_enumeration(tiebreak):
    for ty in solver.MORITA_TYPES:
        for et in solver.EXT_TYPES + ("principal",):
            for d in range(3, 11):
                got = solver.solve(ty, et, d, tiebreak=tiebreak)
                want = enumerate_sign_assignments(ty, et, d, tiebreak=tiebreak)
                assert got == want, (ty, et, d)
                assert [s.eps_rows for s in got] == [s.eps_rows for s in want]


@pytest.mark.parametrize("tiebreak", [True, False])
def test_verify_table2_to_d64(tiebreak):
    report = solver.verify_table2(range(3, solver.MAX_D + 1), tiebreak=tiebreak)
    assert report["ok"]
    assert {c["d"] for c in report["cells"]} == set(range(3, solver.MAX_D + 1))


def test_constraint_sets_are_tagged():
    for et in solver.EXT_TYPES:
        cons = solver.local_constraints(et, solver.build_profile("i", 4))
        assert cons
        assert all(isinstance(c.tag, str) and c.tag for c in cons)
    tags_c = [c.tag for c in solver.local_constraints("c", solver.build_profile("v", 4))]
    assert any("= 0" in t for t in tags_c)
    # the s^2 constraint appears for type (a) with d >= 4 only
    tags_a3 = [c.tag for c in solver.local_constraints("a", solver.build_profile("i", 3))]
    tags_a4 = [c.tag for c in solver.local_constraints("a", solver.build_profile("i", 4))]
    assert not any("s^2" in t for t in tags_a3)
    assert any("s^2" in t for t in tags_a4)


def test_multiplicities_nonnegative_across_feasible_grid():
    for ty in solver.MORITA_TYPES:
        for et in solver.EXT_TYPES:
            for d in (3, 4, 5, 6):
                if et == "e" and d < 4:
                    continue
                for s in solver.solve(ty, et, d):
                    assert all(v >= 0 for v in s.multiplicities), (ty, et, d)
                    if et == "d":
                        assert all(v == 0 for v in s.multiplicities), (ty, d)


def test_conflicting_multiplicities_are_typed():
    solutions = {}
    eps, fam = (1, 1, 1, 1), (1,)
    solver._record(solutions, solver.build_profile("iv", 3), eps, fam)
    with pytest.raises(InvariantViolation):
        solver._record(solutions, solver.build_profile("v", 3), eps, fam)


def test_solve_rejects_out_of_range_d():
    with pytest.raises(ValueError):
        solver.solve("i", "a", solver.MAX_D + 1)
    with pytest.raises(ValueError):
        solver.solve("i", "a", 2)
