import random
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (MatrixModule, bitwise_quotient, chopped_corner_is_local,
                     conjugation_action_is_homomorphism, corner_action, dual_module,
                     hom_space_endomorphisms, isomorphic_irreducibles, matrix_minpoly,
                     matrix_route_summands, matrix_span_action, modules_isomorphic,
                     pair_orbitals, summand_module)
from test_acceptance import BUILTINS
from workbench import blocks, meataxe, modrep, pipeline
from workbench.chartab import dixon_table
from workbench.errors import CapExceeded, FieldTooSmall, InvariantViolation, NotInO2
from workbench.gf2 import BitMatrix, Echelon, GF2Field, restrict
from workbench.groups import builtin_group
from workbench.perm import generate, read_generator_file

GROUP_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
LADDER = ("psl27", "s5", "a7", "pgl2_11", "pgl2_13.txt", "M11.txt", "S7.txt")

_cache = {}


def table(name):
    if name not in _cache:
        if name.endswith(".txt"):
            group = generate(read_generator_file(GROUP_FILES / name))
        else:
            group = builtin_group(name)
        _cache[name] = dixon_table(group)
    return _cache[name]


def principal_block(T):
    return next(b for b in blocks.block_partition(T) if b.is_principal)


def test_involution_module_dims():
    assert modrep.involution_perm_module(builtin_group("psl27")).dim == 22
    assert modrep.involution_perm_module(builtin_group("a7")).dim == 106
    assert modrep.involution_perm_module(builtin_group("c3")).dim == 1


def test_action_verification():
    for name in ("s4", "psl27", "a7"):
        G = builtin_group(name)
        m = modrep.involution_perm_module(G)
        assert conjugation_action_is_homomorphism(m, G, sorted(G.involution_indices())), name


def test_block_cut_dims_psl27():
    T = table("psl27")
    m = modrep.involution_perm_module(T.group)
    parts = blocks.block_partition(T)
    principal = next(b for b in parts if b.is_principal)
    defect0 = next(b for b in parts if len(b.rows) == 1)
    cut0 = modrep.block_cut(T, principal, m)
    cut1 = modrep.block_cut(T, defect0, m)
    assert cut0.dim == 14
    assert cut1.dim == 8
    assert cut0.dim + cut1.dim == m.dim


def test_block_cuts_partition_komega():
    for name in ("s5", "s4", "c2xs3"):
        T = table(name)
        m = modrep.involution_perm_module(T.group)
        total = sum(modrep.block_cut(T, b, m).dim for b in blocks.block_partition(T))
        assert total == m.dim, name


def test_orbit_route_odd_group():
    # C3 blocks have GF(4) idempotents; dims must still partition k-Omega
    T = table("c3")
    m = modrep.involution_perm_module(T.group)
    assert m.dim == 1
    dims = [modrep.block_cut(T, b, m).dim for b in blocks.block_partition(T)]
    assert sorted(dims) == [0, 0, 1]
    # the non-principal blocks have genuine GF(4) idempotents, so their cut
    # is a dimension only, with no action matrices
    nonprincipal = next(b for b in blocks.block_partition(T) if not b.is_principal)
    cut = modrep.block_cut(T, nonprincipal, m)
    assert isinstance(cut, modrep.GFModule)
    assert cut.mats is None
    with pytest.raises(FieldTooSmall):
        modrep.decompose_cut(cut)


@pytest.mark.parametrize("name,dims", [("psl2_9", [8, 8]), ("psl2_11", [12, 12])],
                         ids=["psl2_9", "psl2_11"])
def test_non_rational_cut_dims(name, dims):
    # the dimensions the GF(2^F) matrix route gave; the orbit route repeats them
    T = table(name)
    m = modrep.involution_perm_module(T.group)
    cuts = [modrep.block_cut(T, b, m) for b in blocks.block_partition(T)]
    assert [cut.dim for cut in cuts if isinstance(cut, modrep.GFModule)] == dims


def test_meataxe_psl27_principal_cut():
    T = table("psl27")
    m = modrep.involution_perm_module(T.group)
    cut = modrep.block_cut(T, principal_block(T), m)
    factors = meataxe.group_constituents(meataxe.chop(cut.mats, cut.dim))
    assert [(c.dim, mult) for c, mult in factors] == [(1, 2), (3, 2), (3, 2)]
    # the two 3-dimensional classes are genuinely non-isomorphic
    threes = [c for c, _m in factors if c.dim == 3]
    assert not isomorphic_irreducibles(threes[0], threes[1])


def test_meataxe_c2_regular():
    # regular module of C2: one indecomposable with two trivial factors; it
    # has no orbitals, so End = k[x]/(x^2) comes from the hom_space oracle,
    # and its corner is certified local with no split
    reg = MatrixModule([BitMatrix.from_lists([[0, 1], [1, 0]])], 2)
    factors = meataxe.group_constituents(meataxe.chop(reg.mats, reg.dim))
    assert [(c.dim, mult) for c, mult in factors] == [(1, 2)]
    with pytest.raises(InvariantViolation):
        modrep.endomorphism_basis(reg)
    H = reg.endo = hom_space_endomorphisms(reg)
    assert len(H.mats) == 2 and H.matrix(H.one) == BitMatrix.identity(2)
    corner = H.sandwich(H.one, H.one)
    assert modrep._corner_is_local(H, H.one, corner)
    assert chopped_corner_is_local(H, H.one, corner)
    summands = modrep.summand_split(reg)
    assert [(s.dim, s.idempotent) for s in summands] == [(2, H.one)]
    assert matrix_route_summands(reg) == [(2, 1)]


def test_summand_split_psl27():
    T = table("psl27")
    m = modrep.involution_perm_module(T.group)
    cut = modrep.block_cut(T, principal_block(T), m)
    summands = modrep.summand_split(cut)
    assert len(summands) == 4
    grouped = modrep.group_summands(summands)
    mults = sorted(mult for _s, mult in grouped)
    assert mults == [1, 1, 2]  # exactly one isomorphic pair


def _walk_checked_against_chop(patch, cap=16) -> list:
    """Certify every corner `summand_split` asks about with CORNER_WALK_CAP
    = cap, and check each answer against the chop certificate; the (dim,
    answer) of each corner the unit walk certified is recorded in the
    returned list.  `patch` is the monkeypatch, or a context of it that
    ends before the next call saves the originals."""
    walked = []
    certify, walk = modrep._corner_is_local, modrep._walk_is_local

    def checked(H, f, corner):
        local = certify(H, f, corner)
        assert local == chopped_corner_is_local(H, f, corner), len(corner)
        return local

    def recorded(lefts):
        local = walk(lefts)
        walked.append((len(lefts), local))
        return local

    patch.setattr(modrep, "_corner_is_local", checked)
    patch.setattr(modrep, "_walk_is_local", recorded)
    patch.setattr(modrep, "CORNER_WALK_CAP", cap)
    return walked


def test_summand_split_synthetic_direct_sum(monkeypatch):
    # visibly decomposable: two copies of the S3 involution module.  The sum
    # has no orbitals, so its End comes from the hom_space oracle; the
    # summands of the sum are those of one copy with doubled multiplicities,
    # and each corner the split asks about is walked and chopped alike
    walked = _walk_checked_against_chop(monkeypatch)
    T = table("s3")
    m = modrep.involution_perm_module(T.group)
    big = MatrixModule(
        [BitMatrix([a.rows[i] for i in range(m.dim)] +
                   [a.rows[i] << m.dim for i in range(m.dim)], 2 * m.dim)
         for a in m.mats], 2 * m.dim)
    assert big.perms is None
    big.endo = hom_space_endomorphisms(big)
    one = [(s.dim, k) for s, k in modrep.group_summands(modrep.summand_split(m))]
    assert one == [(1, 2), (2, 1)]
    parts = modrep.summand_split(big)
    assert sum(p.dim for p in parts) == 2 * m.dim
    grouped = [(s.dim, k) for s, k in modrep.group_summands(parts)]
    assert grouped == [(d, 2 * k) for d, k in one] == matrix_route_summands(big)
    assert any(not local for _m, local in walked)  # the sum's corner is walked


def test_o2_principal_check():
    T = table("d8")
    G = T.group
    z = next(i for i in G.involution_indices()
             if i != G.identity_idx() and G.centralizer(G.elements[i]).order == G.order)
    assert modrep.o2_principal_check(T, z)

    T4 = table("s4")
    core = T4.group.o2_core()
    t = next(i for i in T4.group.involution_indices()
             if i != T4.group.identity_idx() and T4.group.elements[i] in core)
    assert modrep.o2_principal_check(T4, t)

    Tc = table("c2xs3")
    corec = Tc.group.o2_core()
    tc = next(i for i in Tc.group.involution_indices()
              if i != Tc.group.identity_idx() and Tc.group.elements[i] in corec)
    assert modrep.o2_principal_check(Tc, tc)


def test_o2_rejects_outside_core():
    T = table("s4")
    G = T.group
    outside = next(i for i in G.involution_indices()
                   if i != G.identity_idx() and G.elements[i] not in G.o2_core())
    with pytest.raises(NotInO2):
        modrep.o2_principal_check(T, outside)


def test_self_duality_of_involution_cut():
    # permutation matrices are orthogonal, so k-Omega is self-dual; the cut
    # by a real block inherits this -- verified by explicit iso search
    T = table("psl27")
    m = modrep.involution_perm_module(T.group)
    for a in m.mats:
        assert a * a.transpose() == BitMatrix.identity(m.dim)
    cut = modrep.block_cut(T, principal_block(T), m)
    assert modules_isomorphic(cut, dual_module(cut))


def test_dimension_valuation_check_psl27():
    T = table("psl27")
    b = principal_block(T)
    m = modrep.involution_perm_module(T.group)
    cut = modrep.block_cut(T, b, m)
    summands = modrep.summand_split(cut)
    b.couple = blocks.defect_couple(T, b)
    report = modrep.dimension_valuation_check(T, b, summands)
    assert report["ok"]
    assert report["bound_index"] == 0

    defect0 = next(bb for bb in blocks.block_partition(T) if len(bb.rows) == 1)
    cut0 = modrep.block_cut(T, defect0, m)
    s0 = modrep.summand_split(cut0)
    defect0.couple = blocks.defect_couple(T, defect0)
    rep0 = modrep.dimension_valuation_check(T, defect0, s0)
    assert rep0["ok"]
    # projective irreducible summand: nu(dim) = nu|G|
    assert rep0["summands"] == [{"dim": 8, "nu": 3, "pass": True}]


def test_export_format_roundtrip():
    m = modrep.involution_perm_module(builtin_group("s3"))
    text = m.mats[0].export_text()
    assert BitMatrix.from_text(text) == m.mats[0]


def _frobenius_orbit_sum(T, b):
    """Oracle: the Frobenius-orbit sum of e_B's coefficients and the orbit length."""
    F = GF2Field(b.field_f)
    coeffs = blocks.block_idempotent_support(T, b)
    orbit = [coeffs]
    while True:
        nxt = [F.mul(c, c) for c in orbit[-1]]
        if nxt == coeffs:
            break
        orbit.append(nxt)
    total = [0] * T.k
    for vec in orbit:
        total = [a ^ c for a, c in zip(total, vec)]
    return total, len(orbit)


def _class_sum_projector(T, coeffs, m):
    """Oracle: sum_j coeffs[j] C_j+ over GF(2) from full class-sum matrices
    on the involutions, the points of the module m."""
    n = m.dim
    labels = sorted(T.group.involution_indices())
    acc = BitMatrix.zero(n, n)
    for j, c in enumerate(coeffs):
        if c:
            acc = acc + modrep.class_sum_matrix(T.group, labels, T.classes[j].members)
    return acc


@pytest.mark.parametrize("name,non_rational", [
    ("s4", False), ("c2xs3", False), ("psl27", False), ("s5", False),
    ("a7", False), ("psl2_9", True), ("c3xs4", True), ("c3xpsl27", True),
    ("pgl2_11", True)])
def test_orbital_projector_matches_class_sums(name, non_rational):
    T = table(name)
    m = modrep.involution_perm_module(T.group)
    H = modrep.endomorphism_basis(m)
    lengths = set()
    for b in blocks.block_partition(T):
        total, length = _frobenius_orbit_sum(T, b)
        assert all(c in (0, 1) for c in total), (name, b.rows)
        oracle = _class_sum_projector(T, total, m)
        e, got_length = modrep.block_projector(T, b, m)
        assert (H.matrix(e), got_length) == (oracle, length), (name, b.rows)
        assert modrep.block_cut(T, b, m).dim * length == oracle.rank(), (name, b.rows)
        lengths.add(length)
    assert (max(lengths) > 1) == non_rational


@pytest.mark.parametrize("name", ["psl27", "a7", "pgl2_11"])
def test_summand_homs_match_hom_space(name):
    # dim fHg = dim Hom(fM, gM), and the grouping by the ideal fHg*gHf
    # agrees with an explicit isomorphism search through hom_space
    pairs = 0
    for cut in _gf2_cuts(name):
        summands = modrep.summand_split(cut)
        H = cut.endo
        modules = [summand_module(s) for s in summands]
        assert [mod.dim for mod in modules] == [s.dim for s in summands]
        for i, s1 in enumerate(summands):
            for j in range(i + 1, len(summands)):
                s2 = summands[j]
                if s1.dim != s2.dim:
                    continue
                pairs += 1
                got = len(H.sandwich(s1.idempotent, s2.idempotent))
                assert got == len(modrep.hom_space(modules[i], modules[j])), (name, s1.dim)
                if name == "pgl2_11" and s1.dim == 20:
                    assert got == 2
                assert modrep._summands_isomorphic(s1, s2) == \
                    modules_isomorphic(modules[i], modules[j]), (name, s1.dim)
    assert pairs > 0


def test_one_dimensional_corner_needs_no_draws(monkeypatch):
    # the defect-0 cut of PSL(2,7) is simple, so End = k
    T = table("psl27")
    m = modrep.involution_perm_module(T.group)
    defect0 = next(b for b in blocks.block_partition(T) if len(b.rows) == 1)
    cut = modrep.block_cut(T, defect0, m)

    def no_draws(*_args):
        raise AssertionError("random corner draw on a one-dimensional corner")

    monkeypatch.setattr(modrep, "_corner_draw", no_draws)
    assert [s.dim for s in modrep.summand_split(cut)] == [8]


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_every_summand_is_certified_local(name, monkeypatch):
    certified = []

    def recording(H, f, corner):
        local = certify(H, f, corner)
        if local:
            certified.append(f)
        return local

    certify = modrep._corner_is_local
    monkeypatch.setattr(modrep, "_corner_is_local", recording)
    for cut in _gf2_cuts(name):
        certified.clear()
        summands = modrep.summand_split(cut)
        assert sorted(s.idempotent for s in summands) == sorted(certified), name


def test_unit_walk_agrees_with_chop_certificate(monkeypatch):
    # every corner the split asks about on four groups: walked up to dim 16,
    # walked up to the module's cap and chopped above it, and chopped only;
    # the splits are the same whichever certifies
    splits = []
    for cap in (16, modrep.CORNER_WALK_CAP, 1):
        with monkeypatch.context() as patch:
            walked = _walk_checked_against_chop(patch, cap)
            splits.append([[s.idempotent for s in modrep.summand_split(cut)]
                           for name in ("psl27", "s5", "a7", "pgl2_11")
                           for cut in _gf2_cuts(name)])
        if cap > 1:
            assert {local for _m, local in walked} == {True, False}, cap
            assert all(1 < m <= cap for m, _local in walked), cap
        else:
            assert walked == []  # every corner of dim > 1 was chopped
    assert splits[0] == splits[1] == splits[2]


def test_uncertified_piece_without_split_raises(monkeypatch):
    T = table("psl27")
    cut = modrep.block_cut(T, principal_block(T), modrep.involution_perm_module(T.group))
    monkeypatch.setattr(modrep, "_corner_is_local", lambda *_args: False)
    with pytest.raises(InvariantViolation):
        modrep.summand_split(cut)


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl27"])
def test_orbital_products_match_matrix_products(name):
    # row b of P_a holds the orbital coordinates of O_a*O_b
    H = modrep.endomorphism_basis(modrep.involution_perm_module(table(name).group))
    assert H.matrix(H.one) == BitMatrix.identity(H.module.dim)
    for a, A in enumerate(H.mats):
        for b, B in enumerate(H.mats):
            assert H.matrix(H.products[a].rows[b]) == A * B, (name, a, b)


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_split_idempotents_are_orthogonal_and_sum_to_the_unit(name):
    for cut in _gf2_cuts(name):
        H = cut.endo
        idems = [s.idempotent for s in modrep.summand_split(cut)]
        for i, f in enumerate(idems):
            for j, g in enumerate(idems):
                assert H.mul(f, g) == (f if i == j else 0), name
        assert reduce(xor, idems) == H.one


@pytest.mark.parametrize("name", sorted(set(BUILTINS + LADDER)))
def test_split_matches_matrix_route(name):
    # summand dims and multiplicities against the d x d matrix route on
    # every rational cut
    cuts = 0
    for cut in _gf2_cuts(name):
        grouped = modrep.group_summands(modrep.summand_split(cut))
        assert [(s.dim, k) for s, k in grouped] == matrix_route_summands(cut), name
        cuts += 1
    assert cuts > 0


def test_singular_action_matrix_raises():
    # a permutation module whose generator folds both points onto one, as
    # no constructor would build it: its matrix is checked on first read
    m = modrep.GF2Module(2, perms=[[0, 0]])
    with pytest.raises(InvariantViolation):
        m.mats


def test_cut_matrices_are_built_and_checked_on_first_use():
    # a cut keeps its basis and algebra, whose module is its parent; the
    # action is restricted, and checked for invertibility, only when `mats`
    # is first read.  The singular parent's own matrices are never read
    parent = modrep.GF2Module(2, perms=[[0, 0]])
    cut = modrep.GF2Module(2, endo=modrep.EndAlgebra(parent, [], [], 1),
                           basis=Echelon([1, 2], 2))
    assert type(cut) is modrep.GF2Module and cut.dim == 2
    with pytest.raises(InvariantViolation):
        cut.mats
    assert parent._mats is None
    T = table("psl27")
    m = modrep.involution_perm_module(T.group)
    cut = modrep.block_cut(T, principal_block(T), m)
    assert cut._mats is None and m._mats is None
    ech = cut.basis
    assert cut.endo.module is m and len(ech) == cut.dim == 14
    assert cut.mats == [restrict(ech, map(a.mul_vec, ech.vectors)) for a in m.mats]
    assert cut.mats is cut.mats


@pytest.mark.parametrize("name", ["psl27", "a7"])
def test_summand_is_a_module_of_its_own(name):
    # a summand fM is a module like its cut: split again, it is one summand
    # with the same idempotent, and its matrices, gathered off k-Omega's
    # position lists, are those restricted from k-Omega's permutation matrices
    checked = 0
    for cut in _gf2_cuts(name):
        for s in modrep.summand_split(cut):
            again = modrep.summand_split(s)
            assert [(t.dim, t.idempotent) for t in again] == [(s.dim, s.idempotent)], name
            assert s.mats == summand_module(s).mats, (name, s.dim)
            checked += 1
    assert checked > 0


def test_summands_of_different_cuts_are_compared():
    # the summands of psl27's principal cut and its defect-0 cut live in one
    # orbital algebra, so they can be compared; those of two k-Omega cannot
    cuts = {c.dim: c for c in _gf2_cuts("psl27")}  # both cut from one k-Omega
    principal, defect0 = cuts[14], cuts[8]
    simple = modrep.summand_split(defect0)[0]
    assert simple.dim == 8
    for s in modrep.summand_split(principal):
        assert not modrep._summands_isomorphic(s, simple)
        assert not modrep._summands_isomorphic(simple, s)
    assert modrep._summands_isomorphic(simple, simple)
    s3, s4 = (modrep.summand_split(next(_gf2_cuts(name)))[0] for name in ("s3", "s4"))
    with pytest.raises(InvariantViolation):
        modrep._summands_isomorphic(s3, s4)


@pytest.mark.parametrize("name", ["psl27", "a7", "M11.txt"])
def test_module_route_builds_no_cut_matrices(name, monkeypatch):
    # analyze_group reads each summand's action off the basis its split kept:
    # no permutation matrix is built, no cut's matrices are read, and each
    # final summand's matrix H.matrix(f) is built (and eliminated) at most once
    matrices, runs = [], []

    def no_perm_matrix(*_args):
        raise AssertionError("analyze_group built a permutation matrix")

    def counted_matrix(H, x):
        matrices.append(x)
        return matrix(H, x)

    def recorded_decompose(cut, seed=0):
        matrices.clear()
        out = decompose(cut, seed=seed)
        runs.append((cut, list(matrices), [s.idempotent for s in out[1]]))
        return out

    matrix, decompose = modrep.EndAlgebra.matrix, modrep.decompose_cut
    monkeypatch.setattr(modrep, "_perm_matrix", no_perm_matrix)
    monkeypatch.setattr(modrep.EndAlgebra, "matrix", counted_matrix)
    monkeypatch.setattr(modrep, "decompose_cut", recorded_decompose)
    G = table(name).group
    report = pipeline.analyze_group(G, name=name)
    assert report["cut_dims_sum_ok"] and report["mismatches"] == []
    assert runs
    for cut, built, final in runs:
        assert cut._mats is None, (name, cut.dim)
        assert sorted(built) == sorted(final), name


def test_orbitals_match_pair_search_on_every_group():
    for name in sorted(set(BUILTINS + LADDER)):
        m = modrep.involution_perm_module(table(name).group)
        _check_orbitals(m)


def _check_orbitals(m):
    got = [(i0, j0, O.rows) for i0, j0, O in modrep._orbitals(m)]
    assert got == [(i0, j0, O.rows) for i0, j0, O in pair_orbitals(m)]
    # the label rows kept, those of the first pairs' points, give the
    # orbital of each pair (i, j)
    assert set(m._labels) == {i for i0, j0, _rows in got for i in (i0, j0)}
    for a, (_i0, _j0, rows) in enumerate(got):
        for i, labels in m._labels.items():
            assert rows[i] == sum(1 << j for j, b in enumerate(labels) if b == a)


@st.composite
def _small_groups(draw):
    """Generators of a subgroup of S_a x S_b, a + b <= 8, kept below 600
    elements: each generator permutes the first a points and the next b."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    halves = st.tuples(st.permutations(range(a)), st.permutations(range(a, a + b)))
    return [tuple(p) + tuple(q) for p, q in draw(st.lists(halves, min_size=1, max_size=3))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_groups(), st.lists(st.integers(0, 99), max_size=4))
@example([(1, 0, 2, 4, 3)], [1, 2, 3])  # a single generator
@example([(0, 1, 2, 3), (1, 2, 3, 0), (1, 0, 2, 3)], [1, 2, 3, 4])  # an identity generator
@example([(0,)], [])  # the trivial group on one point
def test_orbitals_match_pair_search_on_random_groups(gens, picks):
    # the conjugation module on the identity, a one-point orbit, and up to
    # four more classes, capped at 96 points
    G = generate(gens)
    classes = G.conjugacy_classes()
    labels = {G.identity_idx()}
    for k in picks:
        members = classes[k % len(classes)].members
        if len(labels | set(members)) <= 96:
            labels |= set(members)
    m = modrep.conjugation_module(G, labels)
    assert any(i0 == j0 and O.rows[i0] == 1 << i0 and sum(O.rows) == 1 << i0
               for i0, j0, O in modrep._orbitals(m))
    _check_orbitals(m)


def test_restrict_raises_off_a_stable_subspace():
    m = modrep.involution_perm_module(builtin_group("psl27"))
    points = Echelon([1, 2], m.dim)  # two points of Omega span no submodule
    with pytest.raises(InvariantViolation):
        for a in m.mats:
            restrict(points, map(a.mul_vec, points.vectors))
    # the sum of all points is fixed by G, so its span restricts to k
    total = Echelon([(1 << m.dim) - 1], m.dim)
    for a in m.mats:
        assert restrict(total, map(a.mul_vec, total.vectors)) == BitMatrix.identity(1)


@pytest.mark.parametrize("name", ["psl27", "s5", "a7"])
def test_dual_cut_endomorphisms_match(name):
    # a cut's End is e_B times the orbital algebra; its dual has no
    # orbitals, so its End comes from the generic solve (the hom_space
    # oracle).  The cut is self-dual, so both routes give the same End
    # dimension and the same summands
    checked = 0
    for cut in _gf2_cuts(name):
        if cut.dim > modrep.COMMUTANT_DIM_CAP:
            continue
        dual = dual_module(cut)
        assert dual.perms is None and dual.endo is None
        H = cut.endo
        dual.endo = hom_space_endomorphisms(dual)
        assert len(dual.endo.mats) == len(H.sandwich(H.one, H.one))
        assert [(s.dim, k) for s, k in modrep.group_summands(modrep.summand_split(dual))] \
            == [(s.dim, k) for s, k in modrep.group_summands(modrep.summand_split(cut))]
        checked += 1
    assert checked > 0


def _gf2_cuts(name):
    T = table(name)
    m = modrep.involution_perm_module(T.group)
    for b in blocks.block_partition(T):
        cut = modrep.block_cut(T, b, m)
        if not isinstance(cut, modrep.GFModule) and cut.dim:
            yield cut


@pytest.mark.parametrize("name", ["psl27", "a7", "pgl2_11"])
def test_corner_minpoly_matches_matrix_powers(name):
    # the minimal polynomial of a in the corner fHf, from its powers there,
    # equals the minimal polynomial of the matrix of a on fM; on each cut,
    # on each summand and on the complement of each summand
    rng = random.Random(1)
    sub_pieces = 0
    for cut in _gf2_cuts(name):
        H = cut.endo
        pieces = [H.one]
        for s in modrep.summand_split(cut):
            if s.idempotent != H.one:
                pieces += [s.idempotent, H.one ^ s.idempotent]
        for f in pieces:
            corner = H.sandwich(f, f)
            if len(corner) < 2:
                continue
            sub_pieces += f != H.one
            dim = H.matrix(f).rank()
            for _ in range(3):
                a = modrep._corner_draw(corner, rng)
                assert modrep._corner_minpoly(H, f, H.left(a)) == \
                    matrix_minpoly(corner_action(H, f, a).rows, dim), name
    assert sub_pieces > 0


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_module_layer_is_seed_invariant(name):
    for cut in _gf2_cuts(name):
        seen = set()
        for seed in range(6):
            factors, summands, grouped = modrep.decompose_cut(cut, seed=seed)
            seen.add((tuple(sorted((d, k) for _c, d, k in factors)),
                      tuple(sorted(s.dim for s in summands)),
                      tuple(sorted(k for _s, k in grouped))))
        assert len(seen) == 1, (name, cut.dim, seen)


def test_cut_above_the_meataxe_cap_is_refused_before_the_split(monkeypatch):
    # the one cap on a cut is read at the head of decompose_cut: a cut above
    # it never reaches the summand split
    cut = next(c for c in _gf2_cuts("psl27") if c.dim == 14)

    def no_split(*_args, **_kwargs):
        raise AssertionError("summand_split ran on a cut above the cap")

    monkeypatch.setattr(modrep, "MEATAXE_DIM_CAP", 13)
    monkeypatch.setattr(modrep, "summand_split", no_split)
    with pytest.raises(CapExceeded, match="^dim 14 exceeds 13$"):
        modrep.decompose_cut(cut)


@pytest.mark.parametrize("name", sorted(set(BUILTINS) | set(LADDER)))
def test_meataxe_classes_match_oracle_whole_and_by_summand(name):
    # each rational cut at seeds 0-2, chopped whole and one summand per
    # class: within a route, two classes of one dim are not isomorphic; across
    # the routes, each class is isomorphic to exactly one class of the other,
    # with the same multiplicity (the standard-basis oracle)
    for cut in _gf2_cuts(name):
        for seed in range(3):
            whole = [(c, c.dim, k) for c, k in meataxe.group_constituents(
                meataxe.chop(cut.mats, cut.dim, seed=seed))]
            pieces = modrep.decompose_cut(cut, seed=seed)[0]
            for route in (whole, pieces):
                for n, (c1, d1, _k1) in enumerate(route):
                    for c2, d2, _k2 in route[n + 1:]:
                        assert d1 != d2 or not isomorphic_irreducibles(c1, c2), (name, seed)
            for c1, d1, k1 in pieces:
                twins = [k2 for c2, d2, k2 in whole
                         if d2 == d1 and isomorphic_irreducibles(c1, c2)]
                assert twins == [k1], (name, cut.dim, seed, d1)
            assert len(whole) == len(pieces)


@pytest.mark.parametrize("gens", [[[[1, 0], [0, 0]]], [[[1, 0], [0, 1]], [[1, 0], [0, 0]]]],
                         ids=["diag", "identity-diag"])
def test_one_dimensional_factors_are_told_apart_by_scalars(gens):
    # k + k with a generator acting as diag(1, 0): two one-dimensional
    # modules of an algebra, told apart by that generator's scalar
    mats = [BitMatrix.from_lists(g) for g in gens]
    grouped = meataxe.group_constituents(meataxe.chop(mats, 2))
    assert [(c.dim, k) for c, k in grouped] == [(1, 1), (1, 1)]
    assert sorted(c.mats[-1].rows[0] for c, _k in grouped) == [0, 1]


def test_end_dim_reads_the_field_of_endomorphisms():
    # C3 on GF(4) = GF(2)^2 (multiplication by a root of x^2 + x + 1) is
    # simple with End = GF(4); beside it the trivial module has End = GF(2)
    w = [[0, 1, 0], [1, 1, 0], [0, 0, 1]]
    grouped = meataxe.group_constituents(meataxe.chop([BitMatrix.from_lists(w)], 3))
    assert [(c.dim, c.end_dim, k) for c, k in grouped] == [(1, 1, 1), (2, 2, 1)]
    # every factor of psl27's principal cut is absolutely irreducible
    T = table("psl27")
    cut = modrep.block_cut(T, principal_block(T), modrep.involution_perm_module(T.group))
    assert {c.end_dim for c in meataxe.chop(cut.mats, cut.dim)} == {1}


def test_s7_principal_corners_at_seed_24():
    # a corner certified local only because its 1-dim factors were all taken
    # for the trivial module merged 70 + 1 into one summand at this seed
    T = table("S7.txt")
    cut = modrep.block_cut(T, principal_block(T), modrep.involution_perm_module(T.group))
    summands = modrep.summand_split(cut, seed=24)
    assert sorted(s.dim for s in summands) == [1, 1, 1, 1, 14, 14, 70, 70]


@pytest.mark.parametrize("seed", [5, 7])
def test_large_corners_read_end_off_the_certificate(monkeypatch, seed):
    # route guard: above CORNER_WALK_CAP a corner's simple S is checked by
    # dim End(S) from its certificate, never by a generic hom_space solve
    # (at these seeds S7's principal cut meets corners whose S has dim 2, 4)
    def no_hom_space(*_args):
        raise AssertionError("corner locality called hom_space")

    T = table("S7.txt")
    cut = modrep.block_cut(T, principal_block(T), modrep.involution_perm_module(T.group))
    monkeypatch.setattr(modrep, "hom_space", no_hom_space)
    summands = modrep.summand_split(cut, seed=seed)
    assert sorted(s.dim for s in summands) == [1, 1, 1, 1, 14, 14, 70, 70]


def test_meataxe_retry_exhaustion_is_typed(monkeypatch):
    T = table("psl27")
    cut = modrep.block_cut(T, principal_block(T), modrep.involution_perm_module(T.group))
    factors = meataxe.chop(cut.mats, cut.dim)
    monkeypatch.setattr(meataxe, "MAX_THETA_TRIES", 0)
    with pytest.raises(InvariantViolation):
        meataxe.chop(cut.mats, cut.dim)

    # route guard: grouping only counts the classes chop found, with no
    # random isomorphism search and so no budget to run out of
    class NoRandom:
        def __init__(self, *args):
            raise AssertionError("group_constituents drew a random number")

    monkeypatch.setattr(meataxe.random, "Random", NoRandom)
    grouped = meataxe.group_constituents(factors)
    assert [(c.dim, k) for c, k in grouped] == [(1, 2), (3, 2), (3, 2)]
    assert sum(k for _c, k in grouped) == len(factors)


def _spin_cases():
    """(mats, dim) of psl27's 8-dim cut and of a7's 70-dim summand."""
    cut = next(c for c in _gf2_cuts("psl27") if c.dim == 8)
    yield cut.mats, cut.dim
    big = next(c for c in _gf2_cuts("a7") if c.dim == 86)
    summand = next(s for s in modrep.summand_split(big) if s.dim == 70)
    yield summand.mats, summand.dim


def test_spin_stops_at_the_full_module(monkeypatch):
    # once the span is the whole module, spin multiplies no queued vector
    log = []

    class Logged(Echelon):
        def add(self, v):
            grew = super().add(v)
            log.append(len(self))
            return grew

    class Counted(BitMatrix):
        def mul_vec(self, v):
            log.append("mul")
            return super().mul_vec(v)

    monkeypatch.setattr(meataxe, "Echelon", Logged)
    rng = random.Random(5)
    for mats, dim in _spin_cases():
        counted = [Counted(m.rows, m.ncols) for m in mats]
        full = 0
        for _ in range(10):
            log.clear()
            if len(meataxe.spin([rng.getrandbits(dim)], counted, dim)) == dim:
                full += 1
                assert "mul" in log and "mul" not in log[log.index(dim):], dim
        assert full, dim


def test_submodule_skips_the_empty_peel(monkeypatch):
    # after a peel no known simple embeds in X, and a split adds none, so
    # Hom(S, W) = 0 on a submodule W: no _embedded_copies call is made on a
    # submodule fresh from sub_quotient, and the factors (certificates
    # included, since _peel draws no random number) are those of a chop that
    # peels every submodule first, with fewer calls
    mats, dim = list(_spin_cases())[1]
    subs, calls = [], []
    embedded, cut, split = meataxe._embedded_copies, meataxe.sub_quotient, meataxe._split_rec

    def kept_cut(*args):
        sub_mats, quot_mats = cut(*args)
        subs.append(sub_mats)  # kept alive, so no id is reused
        return sub_mats, quot_mats

    def counted(S, m, d):
        calls.append(any(m is sub for sub in subs))
        return embedded(S, m, d)

    def peel_first(m, d, rng, known, out):
        m, d = meataxe._peel(m, d, known, out)
        if d:
            split(m, d, rng, known, out)

    monkeypatch.setattr(meataxe, "sub_quotient", kept_cut)
    monkeypatch.setattr(meataxe, "_embedded_copies", counted)
    got = meataxe.chop(mats, dim, seed=0)
    skipped = list(calls)
    calls.clear()
    monkeypatch.setattr(meataxe, "_split_rec", peel_first)
    want = meataxe.chop(mats, dim, seed=0)
    assert [(c.dim, c.word, c.poly) for c in got] == [(c.dim, c.word, c.poly) for c in want]
    assert sum(c.dim for c in got) == dim == 70 and len(got) == 6
    assert skipped and not any(skipped) and any(calls)
    assert len(skipped) < len(calls)


def test_quotient_runs_match_bitwise_projection():
    # random actions and subspaces, tracked or not, from none to all columns
    rng = random.Random(8)
    for dim in (1, 2, 9, 33, 70, 100):
        mats = [BitMatrix([rng.getrandbits(dim) for _ in range(dim)], dim) for _ in range(2)]
        for k in (0, 1, dim // 2, dim):
            for width in (None, dim):
                ech = Echelon((rng.getrandbits(dim) for _ in range(k)), width)
                got = meataxe.quotient(mats, dim, ech)
                assert got == bitwise_quotient(mats, dim, ech), (dim, k, width)
    # and the quotients of a spun submodule of psl27's principal cut
    cut = next(_gf2_cuts("psl27"))
    sub = meataxe.spin([1], cut.mats, cut.dim)
    assert 0 < len(sub) < cut.dim
    assert meataxe.quotient(cut.mats, cut.dim, sub) == bitwise_quotient(cut.mats, cut.dim, sub)


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_permutation_gather_matches_permutation_matrices(name):
    # the action on each cut and summand of k-Omega, moved by bit gathers,
    # against the permutation matrices
    for cut in _gf2_cuts(name):
        omega = cut.endo.module
        for s in [cut] + modrep.summand_split(cut):
            assert s.endo.module is omega
            assert modrep._span_action(s.basis, omega) == matrix_span_action(s.basis, omega), name


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_product_matrices_match_products_on_every_corner(name, monkeypatch):
    # H.left(b) and H.right(b), built once per corner basis element,
    # against H.mul on every corner the split asks about
    corners = []

    def recording(H, f, corner):
        corners.append((H, corner))
        return certify(H, f, corner)

    certify = modrep._corner_is_local
    monkeypatch.setattr(modrep, "_corner_is_local", recording)
    for cut in _gf2_cuts(name):
        modrep.summand_split(cut)
    assert corners
    for H, corner in corners:
        for b in corner.vectors:
            left, right = H.left(b), H.right(b)
            for x in corner.vectors:
                assert left.mul_vec(x) == H.mul(b, x) and right.mul_vec(x) == H.mul(x, b)
