from pathlib import Path

import pytest

from workbench import blocks, pgroup
from workbench.chartab import dixon_table
from workbench.errors import NotRealBlock
from workbench.groups import builtin_group
from workbench.perm import PermGroup, generate, nu, read_generator_file

from oracles import (abstract_fingerprint, brute_force_block_partition, exact_block_idempotent,
                     exact_central_characters, idempotent_square_check, relative_fingerprint)
from test_acceptance import BUILTINS

GROUP_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "groups"

_cache = {}


def table(name):
    if name not in _cache:
        _cache[name] = dixon_table(builtin_group(name))
    return _cache[name]


def test_psl27_block_partition():
    T = table("psl27")
    parts = blocks.block_partition(T)
    degs = sorted(b.degrees(T) for b in parts)
    assert degs == [[1, 3, 3, 6, 7], [8]]


def test_s5_block_partition():
    T = table("s5")
    parts = blocks.block_partition(T)
    degs = sorted(b.degrees(T) for b in parts)
    assert degs == [[1, 1, 5, 5, 6], [4, 4]]


def test_a7_block_partition():
    T = table("a7")
    parts = blocks.block_partition(T)
    degs = sorted(b.degrees(T) for b in parts)
    assert degs == [[1, 14, 15, 21, 35], [6, 10, 10, 14]]


def test_partition_matches_independent_oracle():
    for name in ("psl27", "s5", "s4", "d16"):
        T = table(name)
        got = sorted(sorted(b.rows) for b in blocks.block_partition(T))
        assert got == brute_force_block_partition(T)


# the perfbench/groups files whose blocks fit a pinned field (the others
# need GF(2^24), GF(2^36) or GF(2^110))
FIELD_FILES = ("M11.txt", "S6.txt", "S7.txt", "a7.txt", "pgl2_11.txt", "pgl2_13.txt",
               "psl2_11.txt", "psl2_13.txt", "psl2_5xpsl2_5.txt", "psl2_9.txt",
               "s5xs3.txt")


@pytest.mark.parametrize("name", BUILTINS + ("pgl2_11",) + FIELD_FILES)
def test_integer_reduction_matches_exact_oracle(name):
    # partition, central characters and idempotents from the table's integer
    # power-basis values against the same reductions of exact Fraction values
    if name.endswith(".txt"):
        T = dixon_table(generate(read_generator_file(GROUP_FILES / name)))
    else:
        T = table(name)
    f, omegas = exact_central_characters(T)
    parts = blocks.block_partition(T)
    assert sorted(sorted(b.rows) for b in parts) == brute_force_block_partition(T)
    for b in parts:
        assert b.field_f == f
        assert all(omegas[i] == b.omega for i in b.rows)
        assert blocks.block_idempotent_support(T, b) == exact_block_idempotent(T, b.rows, f)


def test_odd_order_blocks_are_defect_zero_singletons():
    # kG is semisimple for odd |G|, so each character is its own 2-block
    for name in ("c3", "c7"):
        T = table(name)
        parts = blocks.block_partition(T)
        assert len(parts) == T.k
        assert all(len(b.rows) == 1 and b.defect == 0 for b in parts)
        assert sum(1 for b in parts if b.is_principal) == 1


def test_defects():
    T = table("psl27")
    parts = blocks.block_partition(T)
    by_size = {len(b.rows): b for b in parts}
    assert by_size[5].defect == 3
    assert by_size[1].defect == 0
    T5 = table("s5")
    parts5 = blocks.block_partition(T5)
    by_size5 = {len(b.rows): b for b in parts5}
    assert by_size5[5].defect == 3
    assert by_size5[2].defect == 1


def test_k_b_formula_for_dihedral_blocks():
    # k(B) = 2^(d-2) + 3 whenever the defect group is dihedral of order 2^d
    for name in ("psl27", "s5", "a7", "pgl27"):
        T = table(name)
        for b in blocks.block_partition(T):
            if not b.is_principal:
                continue
            d = b.defect
            assert len(b.rows) == 2 ** (d - 2) + 3


def test_idempotent_support_and_partition_of_unity():
    for name in ("psl27", "s5", "s3", "d8", "a7"):
        T = table(name)
        parts = blocks.block_partition(T)
        supports = [blocks.block_idempotent_support(T, b) for b in parts]
        total = [0] * T.k
        for s in supports:
            total = [a ^ b for a, b in zip(total, s)]
        id_class = T.group.class_of[T.group.identity_idx()]
        expect = [0] * T.k
        expect[id_class] = 1
        assert total == expect, name


def test_idempotent_squares_small_groups():
    # c3, c3xs4 and psl2_9 have blocks whose idempotents are not rational
    for name in ("s3", "d8", "s4", "c2xs3", "c3", "c3xs4", "psl2_9"):
        T = table(name)
        for b in blocks.block_partition(T):
            coeffs = blocks.block_idempotent_support(T, b)
            assert idempotent_square_check(T, coeffs), name


def test_real_defect_classes_nonempty_for_real_blocks():
    for name in ("psl27", "s5", "a7", "d8", "s3", "pgl27"):
        T = table(name)
        for b in blocks.block_partition(T):
            if b.is_real:
                assert blocks.real_defect_classes(T, b), name


def test_real_defect_classes_psl27():
    T = table("psl27")
    parts = blocks.block_partition(T)
    principal = next(b for b in parts if b.is_principal)
    rdc = blocks.real_defect_classes(T, principal)
    # only the identity class has odd size among real 2-regular classes
    assert [T.classes[j].order for j in rdc] == [1]
    defect0 = next(b for b in parts if len(b.rows) == 1)
    rdc0 = blocks.real_defect_classes(T, defect0)
    assert [T.classes[j].order for j in rdc0] == [3]


def test_not_real_block_raises():
    # build a group with a non-real block: C7 x C2? all blocks real there;
    # use the nonreal defect-0 blocks of C7 instead? C7 has a single block.
    # PSL(2,7) blocks are all real; craft the check via a fake block object.
    T = table("c3")
    b = blocks.block_partition(T)[0]
    fake = blocks.BlockData(rows=b.rows, omega=b.omega, field_f=b.field_f,
                            defect=b.defect, is_real=False, is_principal=True)
    with pytest.raises(NotRealBlock):
        blocks.real_defect_classes(T, fake)


def test_defect_couples_principal():
    for name, d in (("psl27", 3), ("s5", 3), ("a7", 3)):
        T = table(name)
        principal = next(b for b in blocks.block_partition(T) if b.is_principal)
        cpl = blocks.defect_couple(T, principal)
        assert cpl.D.order == 2 ** d
        assert cpl.E.order == cpl.D.order  # E = D for principal blocks
        assert cpl.etype == "principal"


def test_defect_couple_defect0_block():
    T = table("psl27")
    defect0 = next(b for b in blocks.block_partition(T) if len(b.rows) == 1)
    cpl = blocks.defect_couple(T, defect0)
    assert cpl.D.order == 1
    assert cpl.E.order == 2   # strongly real defect-0 block
    assert cpl.etype is None  # not dihedral, couple still returned


@pytest.mark.parametrize("name", BUILTINS + ("pgl2_11",) + FIELD_FILES)
def test_couple_fingerprints_match_engine_oracle(name):
    # the fingerprints read off the left rows of every concrete couple
    # (D, E) against the engine's classes and centralizers; the dihedral
    # ones with E != D are S7's and s5xs3's, both of type (a)
    if name.endswith(".txt"):
        T = dixon_table(generate(read_generator_file(GROUP_FILES / name)))
    else:
        T = table(name)
    for b in blocks.analyze_blocks(T):
        if b.couple is None:
            continue
        D, E = b.couple.D, b.couple.E
        assert pgroup.group_fingerprint(D) == abstract_fingerprint(D)
        assert pgroup.group_fingerprint(E, D) == \
            relative_fingerprint(E, frozenset(D.elements), D.generators)


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11", "c3xs4"])
def test_couple_grown_on_generators(name):
    # D Sylow in C(c), E Sylow in C*(c) above D: then E n C(c) = D, and D
    # carries at most log2|D| generators
    T = table(name)
    G = T.group
    for b in blocks.analyze_blocks(T):
        if not b.is_real:
            continue
        D, E = b.couple.D, b.couple.E
        assert D.is_subgroup_of(E)
        assert E.order in (D.order, 2 * D.order)
        cent = G.centralizer(G.elements[b.couple.c_index])
        assert {x for x in E.elements if x in cent} == set(D.elements)
        assert len(D.generators) <= nu(D.order)


def test_two_defect_notions_agree():
    for name in ("psl27", "s5", "pgl27"):
        T = table(name)
        for b in blocks.block_partition(T):
            if not b.is_real:
                continue
            if not blocks.real_defect_classes(T, b):
                continue
            cpl = blocks.defect_couple(T, b)
            assert nu(cpl.D.order) == b.defect, name


def test_couple_conjugacy_psl27_and_s5():
    for name in ("psl27", "s5", "pgl2_11"):
        T = table(name)
        for b in blocks.block_partition(T):
            if b.is_real:
                assert blocks.couple_conjugacy_check(T, b), name


def test_analyze_blocks_pgl27():
    T = table("pgl27")
    parts = blocks.analyze_blocks(T)
    principal = next(b for b in parts if b.is_principal)
    assert principal.defect == 4
    assert sorted(principal.degrees(T)) == [1, 1, 6, 6, 6, 7, 7]
    assert principal.etype == "principal"


def test_analyze_blocks_keeps_the_defect_couple():
    T = table("psl27")
    for b in blocks.analyze_blocks(T):
        assert isinstance(b.couple, blocks.DefectCouple)
        assert b.couple.etype == b.etype
        assert T.group.class_of[b.couple.c_index] in b.real_defect_class_ids


@pytest.mark.parametrize("name", BUILTINS + ("pgl2_13.txt", "M11.txt", "S7.txt"))
def test_couples_match_the_two_walk_route(name):
    # C(c) and C*(c) read off one walk give the couples that C*(c), then
    # C(c) inside it, each read off a walk of their own give
    if name.endswith(".txt"):
        T = dixon_table(generate(read_generator_file(GROUP_FILES / name)))
    else:
        T = table(name)
    G, couples = T.group, 0
    for b in blocks.analyze_blocks(T):
        if b.couple is None:
            continue
        c = G.elements[b.couple.c_index]
        ext = G.extended_centralizer(c)
        cent = ext.centralizer(c)
        assert [H.elements for H in G.centralizers(c)] == [cent.elements, ext.elements]
        D = cent.sylow2()
        assert b.couple.D.elements == D.elements
        assert b.couple.E.elements == ext.sylow2(D).elements
        couples += 1
    assert couples, name


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_central_couple_takes_no_walk(name, monkeypatch):
    # C(1) = C*(1) = G, so the principal block's couple (c = 1) walks no
    # conjugation rows
    T = table(name)
    G, walks, conjugates = T.group, [], PermGroup._conjugates
    monkeypatch.setattr(PermGroup, "_conjugates",
                        lambda self, r: walks.append(r) or conjugates(self, r))
    principal = blocks.analyze_blocks(T)[0]
    assert principal.is_principal and principal.couple.c_index == G.identity_idx()
    assert G.identity_idx() not in walks
