import random

import pytest

from workbench import pgroup
from workbench.errors import BadDegree, NotDihedral, TypeUnavailable
from workbench.groups import builtin_group
from workbench.perm import PermGroup, inverse, mul, perm_order

from oracles import abstract_fingerprint, all_elements_subpair_reality, relative_fingerprint

_frames = {}
_exts = {}


def frame(d):
    if d not in _frames:
        _frames[d] = pgroup.build_dihedral(d)
    return _frames[d]


def ext(d, ty):
    if (d, ty) not in _exts:
        _exts[(d, ty)] = pgroup.build_extension(frame(d), ty)
    return _exts[(d, ty)]


def test_build_dihedral_basics():
    f = frame(3)
    assert f.group.order == 8
    assert len(f.group.involution_indices()) == 6
    f4 = frame(4)
    t_cent = f4.group.centralizer(f4.t)
    assert t_cent.order == 4
    f5 = frame(5)
    z = f5.perm(f5.s_i(1))
    assert perm_order(z) == 2
    assert f5.group.centralizer(z).order == 32


def test_build_dihedral_bad_degree():
    with pytest.raises(BadDegree):
        pgroup.build_dihedral(2)


def test_build_extension_relations():
    for d in (3, 4, 5):
        for ty in pgroup._available_types(d):
            e = ext(d, ty)
            assert e.E.order == 2 ** (d + 1)
            # rows[x] is the element sending the identity to x
            assert sorted(e.rows) == e.E.elements
            assert all(g[0] == x for x, g in enumerate(e.rows))


def test_extension_c_is_d16_for_d3():
    E = ext(3, "c").E
    assert E.order == 16
    assert len(E.involution_indices()) == 10  # 9 involutions + identity


def test_extension_d_is_sd16_for_d3():
    E = ext(3, "d").E
    assert E.order == 16
    assert len(E.involution_indices()) == 6  # 5 involutions + identity
    # matches the concrete SD16 builtin
    sd = builtin_group("sd16")
    assert ext(3, "d").fingerprint()[:5] == pgroup.group_fingerprint(sd) == \
        abstract_fingerprint(sd)


def test_extension_e_centralizer():
    e4 = ext(4, "e")
    cd = e4.centralizer_in_D((0, 0, 1))
    assert cd == e4.named_subgroup("X_3")
    assert len(cd) == 8


def test_normal_form_matches_engine():
    # the normal-form product is E's product, and each named subgroup is the
    # engine closure of its defining generators
    for d in (3, 4, 5):
        for ty in pgroup._available_types(d):
            e = ext(d, ty)
            perms = dict(zip(e.points, e.rows))
            assert all(e.points[g[0]] == h for h, g in perms.items())
            for p, gp in perms.items():
                for q, gq in perms.items():
                    assert e.points[mul(gp, gq)[0]] == e.mul(p, q), (d, ty, p, q)
            for name in e.named_subgroup_names():
                gens = e.named_generators(name)
                assert len(gens) <= 2
                closure = e.E.subgroup([e.rows[e._index[y + (0,)]] for y in gens])
                assert {e.points[g[0]][:2] for g in closure.elements} == \
                    e.named_subgroup(name), (d, ty, name)


def test_type_e_unavailable_for_d3():
    with pytest.raises(TypeUnavailable):
        pgroup.build_extension(frame(3), "e")


def test_census_counts():
    assert len(pgroup.census_degree2_extensions(frame(3))) == 4
    assert [t for t, _ in pgroup.census_degree2_extensions(frame(3))] == ["a", "b", "c", "d"]
    for d in (4, 5):
        cs = pgroup.census_degree2_extensions(frame(d))
        assert [t for t, _ in cs] == ["a", "b", "c", "d", "e"]


def test_fingerprints_pairwise_distinct():
    for d in (3, 4, 5, 6, 7):
        fps = [ext(d, ty).fingerprint() for ty in pgroup._available_types(d)]
        assert len(set(fps)) == len(fps)


def test_classify_roundtrip():
    for d in (3, 4, 5, 6, 7):
        for ty in pgroup._available_types(d):
            e = ext(d, ty)
            D = e.E.subgroup([e.s, e.t])
            assert pgroup.classify_extension(D, e.E) == ty
            assert pgroup.classify_extension(D, D) == "principal"


def test_classify_d_times_c2_is_a():
    e = ext(4, "a")
    D = e.E.subgroup([e.s, e.t])
    assert pgroup.classify_extension(D, e.E) == "a"


def test_classify_not_dihedral():
    G = builtin_group("c16")
    with pytest.raises(NotDihedral):
        pgroup.classify_extension(G, G)


def test_eclass_table_matches_reference_rows():
    for d in (3, 4, 5, 6):
        for ty in pgroup._available_types(d):
            rows = pgroup.eclass_table(ext(d, ty))
            expected = pgroup.expected_table1_rows(d, ty)
            assert len(rows) == len(expected)
            for (label, inv, cname, size), (elabel, _spec, einv, ecname) in zip(rows, expected):
                assert label == elabel
                assert inv == einv, (d, ty, label)
                assert cname == ecname, (d, ty, label)


def test_eclass_table_examples_d4():
    rows = {r[0]: r for r in pgroup.eclass_table(ext(4, "a"))}
    assert rows["t*e"][2] == "X_2" and rows["t*e"][1] is True
    rows_c = {r[0]: r for r in pgroup.eclass_table(ext(4, "c"))}
    assert rows_c["e"][2] == "S_1" and rows_c["e"][1] is True
    rows_e = {r[0]: r for r in pgroup.eclass_table(ext(4, "e"))}
    assert rows_e["s2*e"][2] == "Y_3" and rows_e["s2*e"][1] is False


def test_reality_pattern_matches_reference():
    for d in (3, 4, 5, 6):
        for ty in pgroup._available_types(d):
            got = pgroup.reality_pattern(ext(d, ty))
            want = pgroup.expected_reality(d, ty)
            assert got == want, (d, ty, {k: (got[k], want[k]) for k in got if got[k] != want[k]})


def test_subpair_reality_matches_all_elements_oracle():
    # generators of a named Q, or every element of a listed one, against the
    # commutation test with every element of Q
    rng = random.Random(0)
    for d in (3, 4, 5, 6):
        for ty in pgroup._available_types(d):
            e = ext(d, ty)
            for name in e.named_subgroup_names():
                assert pgroup.subpair_reality(e, name) == \
                    all_elements_subpair_reality(e, name), (d, ty, name)
            forms = e.frame.forms
            for _ in range(8):
                Q = rng.sample(forms, rng.randint(1, 4))
                assert pgroup.subpair_reality(e, Q) == \
                    all_elements_subpair_reality(e, Q), (d, ty, Q)


def test_strongly_real_implies_real():
    for d in (3, 4, 5):
        for ty in pgroup._available_types(d):
            for name, (real, strong) in pgroup.reality_pattern(ext(d, ty)).items():
                if strong:
                    assert real, (d, ty, name)


def test_real_condition_examples():
    assert pgroup.subpair_reality(ext(4, "c"), "S_1")[0] is True
    assert pgroup.subpair_reality(ext(4, "c"), "D")[0] is False
    assert pgroup.subpair_reality(ext(4, "e"), "S")[0] is False
    assert pgroup.subpair_reality(ext(4, "a"), "Y_2")[1] is True
    assert pgroup.subpair_reality(ext(4, "d"), "S_1")[1] is False
    assert pgroup.subpair_reality(ext(4, "b"), "S_2")[1] is True


def test_real_condition_constant_on_conjugates():
    # conjugating Q inside D does not change the predicate
    e = ext(4, "c")
    t_conj = mul(mul(inverse(e.s), e.t), e.s)
    assert pgroup.subpair_reality(e, [(0, 1)])[0] == \
        pgroup.subpair_reality(e, [e.points[t_conj[0]][:2]])[0]


def test_named_subgroups_cover_all_subgroups_up_to_conjugacy():
    # brute subgroup census for small d: every subgroup of D is D-conjugate
    # to a named one
    for d in (3, 4):
        e = ext(d, "a")
        D = e.E.subgroup([e.s, e.t])
        named = [e.named_subgroup(n) for n in e.named_subgroup_names()]
        seen = set()
        for a in D.elements:
            for b in D.elements:
                sub = frozenset(D.subgroup([a, b]).elements)
                seen.add(sub)
        for sub in seen:
            conjugates = []
            for g in D.elements:
                gi = inverse(g)
                conjugates.append(frozenset(e.points[mul(mul(gi, x), g)[0]][:2] for x in sub))
            assert any(c in named for c in conjugates)


def test_count_real_columns():
    for d in (3, 4, 5, 6):
        out = pgroup.count_real_columns(d, "a", "aa")
        assert out["total"] == 2 ** (d - 2) + 3
        assert out["real"] == out["total"]
    out = pgroup.count_real_columns(5, "e", "aa")
    assert out["nonreal"] == 2 ** (5 - 3)
    out = pgroup.count_real_columns(4, "c", "bb")
    assert out["nonreal"] == 2
    assert out["real"] == 2 ** (4 - 2) + 1


def test_regular_fingerprint_matches_engine_oracle(monkeypatch):
    # every extension the census builds: the fingerprint on E's rows, and
    # on the left rows of E as a concrete group, against the engine's
    # classes and centralizers
    built = []
    init = pgroup.ExtensionFrame.__init__

    def kept_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(pgroup.ExtensionFrame, "__init__", kept_init)
    for d in (3, 4, 5, 6):
        pgroup.census_degree2_extensions(frame(d))
    candidates = [e for e in built if e.etype is None]
    assert len(candidates) == 26
    for e in candidates:
        d = e.frame.d
        D_set = {g for g in e.E.elements if g[0] < 2 ** d}
        want = relative_fingerprint(e.E, D_set, [e.s, e.t])
        assert e.fingerprint() == want, (d, e.alpha, e.u)
        assert pgroup.group_fingerprint(e.E, e.E.subgroup([e.s, e.t])) == want
        assert pgroup.group_fingerprint(e.E) == abstract_fingerprint(e.E)


def test_generator_rows_match_normal_form_products(monkeypatch):
    # the rows of s, t and e written by index arithmetic are right
    # multiplication by `mul` on the normal forms, for every census
    # candidate and every type build_extension makes, d = 3..6
    built = []
    init = pgroup.ExtensionFrame.__init__

    def kept_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(pgroup.ExtensionFrame, "__init__", kept_init)
    for d in (3, 4, 5, 6):
        pgroup.census_degree2_extensions(frame(d))
        for ty in pgroup._available_types(d):
            pgroup.build_extension(frame(d), ty)
    assert len([e for e in built if e.etype is None]) == 26
    assert sorted({e.etype for e in built} - {None}) == list(pgroup.EXT_TYPES)
    for e in built:
        want = tuple(tuple(e._index[e.mul(p, h)] for p in e.points)
                     for h in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert (e.s, e.t, e.e) == want, (e.frame.d, e.alpha, e.u)


def test_eclass_classes_match_engine_classes():
    # each row's class, the orbit of its point under conjugation by s, t
    # and e, is the engine's class of its permutation
    for d in (3, 4, 5, 6):
        for ty in pgroup._available_types(d):
            e = ext(d, ty)
            classes = e.E.conjugacy_classes()
            sizes = [size for _label, _inv, _cname, size in pgroup.eclass_table(e)]
            for (_label, (k, teps), _inv, _cname), size in zip(
                    pgroup.expected_table1_rows(d, ty), sizes):
                g = e.rows[e._index[(k, teps, 1)]]
                members = classes[e.E.class_of[e.E.idx(g)]].members
                want = {e.E.elements[j][0] for j in members}
                assert e.conjugacy_class(g[0]) == want, (d, ty, k, teps)
                assert size == len(want)


def test_table2_route_reads_products_off_rows(monkeypatch):
    # the census, build_extension, eclass_table and reality_pattern read
    # every product off E's rows: the three generator rows are written by
    # index arithmetic, normal-form products only check the type relations
    # (at most 6 products), and no group's conjugacy classes are built
    frames, products, classes = [], [], []
    init, nf_mul = pgroup.ExtensionFrame.__init__, pgroup.ExtensionFrame.mul
    engine_classes = PermGroup.conjugacy_classes

    def counted_init(self, *args):
        frames.append(self)
        init(self, *args)

    def counted_mul(self, p, q):
        products.append(1)
        return nf_mul(self, p, q)

    def counted_classes(self):
        classes.append(self.order)
        return engine_classes(self)

    monkeypatch.setattr(pgroup.ExtensionFrame, "__init__", counted_init)
    monkeypatch.setattr(pgroup.ExtensionFrame, "mul", counted_mul)
    monkeypatch.setattr(PermGroup, "conjugacy_classes", counted_classes)
    pgroup._reference_fingerprints.cache_clear()  # build the reference types too
    for d in (3, 4, 5, 6):
        f = pgroup.build_dihedral(d)
        assert [ty for ty, _fp in pgroup.census_degree2_extensions(f)] == \
            list(pgroup._available_types(d))
        for ty in pgroup._available_types(d):
            e = pgroup.build_extension(f, ty)
            pgroup.eclass_table(e)
            pgroup.reality_pattern(e)
    assert frames
    assert len(products) <= 6 * len(frames)
    assert classes == []
