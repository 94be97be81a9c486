"""Wider end-to-end coverage: more concrete groups against the classification."""

import pytest

from test_chartab import FS_MINUS_ONE
from workbench import perm
from workbench.groups import builtin_group
from workbench.pipeline import analyze_group


def principal(rep):
    return next(b for b in rep["blocks"] if b["is_principal"])


def test_d8_nilpotent_block():
    rep = analyze_group("d8")
    assert rep["mismatches"] == []
    p = principal(rep)
    assert p["morita"] == "i" and p["etype"] == "principal"
    assert p["fs_height0"] == "++++" and p["fs_family"] == "+"
    # k-Omega B = k-Omega for the full group algebra: multiplicity 6 = |D|/2 + 2
    assert p["meataxe"] == [(1, 6)] == p["predicted"]
    assert p["komega_dim"] == 6
    assert sorted(p["summand_multiplicities"]) == [1, 1, 2]


def test_d16_nilpotent_block():
    rep = analyze_group("d16")
    assert rep["mismatches"] == []
    p = principal(rep)
    assert p["morita"] == "i"
    assert p["fs_height0"] == "++++" and p["fs_family"] == "++"
    assert p["meataxe"] == [(1, 10)] == p["predicted"]  # |D|/2 + 2


def test_sd16_excluded_from_matching():
    # semidihedral defect group: outside the dihedral classification
    rep = analyze_group("sd16")
    p = principal(rep)
    assert p["defect_group_dihedral"] is False
    assert p.get("morita") is None
    assert "no Morita shape" not in "".join(rep["mismatches"])


def test_psl2_9_type_v():
    # A6 = PSL(2,9): principal block of Morita shape (v) with d = 3
    rep = analyze_group("psl2_9")
    assert rep["mismatches"] == []
    p = principal(rep)
    assert p["degrees"] == [1, 5, 5, 9, 10]
    assert p["morita"] == "v"
    assert p["simple_dims"] == [1, 4, 4]
    assert p["fs_height0"] == "++++" and p["fs_family"] == "+"
    assert p["meataxe"] == [(1, 6), (4, 3), (4, 3)] == p["predicted"]
    assert sorted(p["summand_multiplicities"]) == [1, 1, 2]


def test_pgl2_9_type_ii_d4():
    # d = 4 concrete group for the PGL(2,q) q=1 mod 4 row
    rep = analyze_group("pgl2_9")
    assert rep["mismatches"] == []
    p = principal(rep)
    assert p["defect_group_order"] == 16
    assert p["morita"] == "ii"
    assert p["simple_dims"] == [1, 8]
    assert p["fs_height0"] == "++++" and p["fs_family"] == "++"
    assert p["meataxe"] == [(1, 10), (8, 5)] == p["predicted"]


def test_pgl2_11_confirms_d8_tiebreak():
    # Morita (iii) with |D| = 8: the concrete FS values realize the
    # tiebreak branch eps^(0) = +1 of the symbolic corner cell
    rep = analyze_group("pgl2_11")
    assert rep["mismatches"] == []
    p = principal(rep)
    assert p["defect_group_order"] == 8
    assert p["morita"] == "iii"
    assert p["degrees"] == [1, 1, 10, 11, 11]
    assert p["fs_family"] == "+"  # eps^(0) = +1, not the -1 branch
    assert p["meataxe"] == [(1, 4), (10, 3)] == p["predicted"]


def test_psl2_11_klein_defect_graceful():
    # nu(660) = 2: Sylow is Klein four, outside the dihedral classification
    rep = analyze_group("psl2_11")
    p = principal(rep)
    assert p["defect"] == 2
    assert p["defect_group_dihedral"] is False
    assert rep["cut_dims_sum_ok"]
    assert rep["fs_count_identity_ok"]


def test_product_groups():
    G = builtin_group("c3xc3")
    assert G.order == 9
    H = builtin_group("d8xc2")
    assert H.order == 16
    rep = analyze_group(H, name="d8xc2")
    assert rep["fs_count_identity_ok"]
    assert rep["cut_dims_sum_ok"]


# seeds at which a subquotient's zero and repeated generators once starved
# the MeatAxe's random words of the one generator that splits
MEATAXE_WITNESSES = [(["(1 2)(3 4)", "(1 6 2 7 3 8 4 5)"], 64, seed) for seed in (122, 191, 211, 357)]
MEATAXE_WITNESSES.append((["(1 6 3 5 2 7 8)", "(1 8 2 5 6 7)(3 4)"], 1344, 195))  # AGL(3,2)
# and Q8 and SL(2,3), whose characters of FS indicator -1 the involution
# count identity weighs negatively
MEATAXE_WITNESSES += [(list(FS_MINUS_ONE["q8"][0]), 8, 0), (list(FS_MINUS_ONE["sl2_3"][0]), 24, 0)]


@pytest.mark.parametrize("cycles,order,seed", MEATAXE_WITNESSES)
def test_meataxe_witnesses_finish(cycles, order, seed):
    G = perm.generate([perm.parse_cycles(c, degree=8) for c in cycles])
    assert G.order == order
    rep = analyze_group(G, seed=seed)
    assert rep["cut_dims_sum_ok"] and rep["fs_count_identity_ok"] and rep["mismatches"] == []
    for b in rep["blocks"]:
        if b["meataxe"] is not None:
            assert sum(d * m for d, m in b["meataxe"]) == b["komega_dim"]
            assert sum(b["summand_dims"]) == b["komega_dim"]
