import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from workbench import blocks, modrep, perm, pgroup
from workbench.chartab import dixon_table
from workbench.errors import CapExceeded, NotMember
from workbench.groups import builtin_group

from oracles import (conjugate_intersection_o2_core, normalizer_ascent_sylow2, tree_walk,
                     tuple_closure)

GROUP_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def _group(name):
    path = GROUP_FILES / f"{name}.txt"
    if path.exists():
        return perm.generate(perm.read_generator_file(str(path)))
    return builtin_group(name)


def _inv_idx(G, i):
    return G.idx(perm.inverse(G.elements[i]))


def test_mul_convention():
    p = perm.parse_cycles("(1 2)")
    q = perm.parse_cycles("(2 3)")
    # apply p then q: 1 -> 2 -> 3
    assert perm.mul(p, q)[0] == 2


def test_parse_and_render_cycles():
    p = perm.parse_cycles("(1 2 3 4)(5 6)")
    assert p == (1, 2, 3, 0, 5, 4)
    assert perm.cycle_notation(p) == "(1 2 3 4)(5 6)"
    assert perm.parse_cycles("()", degree=3) == (0, 1, 2)
    with pytest.raises(ValueError):
        perm.parse_cycles("(1 2)(2 3)")


def test_generate_d8_order():
    G = builtin_group("d8")
    assert G.order == 8
    assert len(G.involution_indices()) == 6


def test_generate_psl27_order():
    G = builtin_group("psl27")
    assert G.order == 168
    assert len(G.involution_indices()) == 22


def test_generate_trivial():
    G = perm.generate([], degree=1)
    assert G.order == 1


def test_cap_exceeded():
    gens = [perm.parse_cycles("(1 2)"), perm.parse_cycles("(1 2 3 4 5 6 7 8)")]
    with pytest.raises(CapExceeded):
        perm.PermGroup(gens, cap=100)


def test_class_counts_s3():
    G = builtin_group("s3")
    cls = G.conjugacy_classes()
    assert len(cls) == 3
    assert all(c.is_real for c in cls)


def test_class_counts_c3():
    G = builtin_group("c3")
    cls = G.conjugacy_classes()
    assert len(cls) == 3
    assert sum(1 for c in cls if not c.is_real) == 2


def test_class_counts_a7():
    G = builtin_group("a7")
    cls = G.conjugacy_classes()
    assert len(cls) == 9
    nonreal = [c for c in cls if not c.is_real]
    assert len(nonreal) == 2
    assert all(c.order == 7 for c in nonreal)


def test_class_reality_against_inversion_closure():
    # flags must agree with an independently recomputed inversion check
    for name in ("s4", "psl27", "c7"):
        G = builtin_group(name)
        for c in G.conjugacy_classes():
            closed = all(_inv_idx(G, m) in c.members for m in c.members)
            touched = any(_inv_idx(G, m) in c.members for m in c.members)
            assert c.is_real == closed == touched


def test_class_size_times_centralizer():
    for name in ("s4", "d16", "psl27"):
        G = builtin_group(name)
        for c in G.conjugacy_classes():
            cent = G.centralizer(G.elements[c.rep])
            assert c.size() * cent.order == G.order


def test_centralizers_order7():
    # In PSL(2,7) the 7-classes are non-real, so C*(c) = C(c); the index-2
    # jump appears in PGL(2,7) where c ~ c^-1.
    G = builtin_group("psl27")
    g = next(p for p in G.elements if perm.perm_order(p) == 7)
    assert G.centralizer(g).order == 7
    assert G.extended_centralizer(g).order == 7
    H = builtin_group("pgl27")
    h = next(p for p in H.elements if perm.perm_order(p) == 7)
    assert H.centralizer(h).order == 7
    assert H.extended_centralizer(h).order == 14


def test_extended_centralizer_index():
    G = builtin_group("s4")
    for c in G.conjugacy_classes():
        g = G.elements[c.rep]
        cg = G.centralizer(g).order
        cs = G.extended_centralizer(g).order
        assert cs % cg == 0 and cs // cg in (1, 2)
        # index 2 iff g is real and g != g^-1
        expect2 = c.is_real and perm.inverse(g) != tuple(g)
        assert (cs // cg == 2) == expect2


def test_extended_centralizer_central_element():
    G = builtin_group("d8")
    z = next(p for p in G.elements
             if tuple(p) != perm.identity(G.degree) and G.centralizer(p).order == G.order)
    assert G.extended_centralizer(z).order == G.order


def test_not_member():
    G = builtin_group("c3")
    with pytest.raises(NotMember):
        G.centralizer(perm.parse_cycles("(1 2)", degree=3))


def test_elements_are_the_closure_keys():
    # up to degree 256 an element is the bytes the closure stepped, and it is
    # its own index key, listed in element order; above 256 it is a tuple.
    # idx and `in` take a permutation as a tuple, a list or bytes
    G = builtin_group("pgl2_11")
    assert G.degree == 12 and all(type(p) is bytes for p in G.elements)
    assert list(G.index) == G.elements and list(G.index.values()) == list(range(G.order))
    assert all(G.elements[i] is p for p, i in G.index.items())
    H = perm.generate([perm.parse_cycles("(1 257)(2 3)", degree=257)])
    assert H.order == 2 and all(type(p) is tuple for p in H.elements)
    for K, forms in ((G, (tuple, list, bytes)), (H, (tuple, list))):
        for x, p in enumerate(K.elements):
            for form in forms:
                assert form(p) in K and K.idx(form(p)) == x
    # a point that no byte holds: a non-member, not a ValueError
    far = perm.parse_cycles("(1 257)", degree=257)
    assert far not in G and list(far) not in G
    with pytest.raises(NotMember):
        G.idx(far)
    with pytest.raises(NotMember):
        G.centralizer(far)


def test_sylow2_psl27_and_s5():
    for name in ("psl27", "s5"):
        G = builtin_group(name)
        P = G.sylow2()
        assert P.order == 8
        assert P.exponent() == 4
        assert len(P.involution_indices()) == 6  # dihedral fingerprint


def test_sylow2_odd_group():
    G = builtin_group("c7")
    assert G.sylow2().order == 1


def test_sylow2_conjugacy_small():
    # Sylow subgroups grown by independent normalizer ascents inside
    # conjugate subgroups must be conjugate in G (exhaustive search)
    G = builtin_group("s5")
    # transpositions: centralizer C2 x S3 of order 12, Sylow-2 Klein four
    x = next(tuple(p) for p in G.elements
             if perm.perm_order(p) == 2 and G.centralizer(p).order == 12)
    g = next(p for p in G.elements if perm.conj(x, p) != x)
    y = perm.conj(x, g)
    P1 = G.centralizer(x).sylow2()
    P2 = G.centralizer(y).sylow2()
    assert P1.order == P2.order == 4
    conjugators = [h for h in G.elements
                   if all(perm.conj(p, h) in P2 for p in P1.elements)]
    assert conjugators


def test_sylow2_translates_are_conjugate():
    G = builtin_group("s4")
    P = G.sylow2()
    for g in G.elements[:6]:
        Q = G._from_elements([perm.conj(p, g) for p in P.elements])
        found = any(
            all(perm.conj(p, x) in Q for p in P.elements)
            for x in G.elements
        )
        assert found


@pytest.mark.parametrize("name", ["s4", "c2xs3", "psl27", "a7", "pgl2_11", "M11",
                                  "s4 on 257 points", "sd16 on 257 points"])
def test_sylow_ascent_matches_oracle(name):
    # growing P on its generators picks the same y at every step as
    # adjoining the first 2-element of the whole normalizer N_G(P); above
    # degree 256 the ascent steps tuples by `mul`, and sd16's elements of
    # order 8 need y^-1 != y
    if name.endswith(" on 257 points"):
        G = perm.generate(builtin_group(name.split()[0]).generators, degree=257)
        assert isinstance(G.elements[0], tuple)
    else:
        G = _group(name)
    P, Q = G.sylow2(), normalizer_ascent_sylow2(G)
    assert P.elements == Q.elements
    assert P.generators == Q.generators


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11"])
def test_sylow_start_reads_no_orders(name, monkeypatch):
    # a start that is already Sylow is the answer: no element orders are
    # read, neither per element nor off the classes, as an ascent reads them
    G, reads = builtin_group(name), []
    P = G.sylow2()
    for attr in ("_orders", "conjugacy_classes"):
        def counted(self, fn=getattr(perm.PermGroup, attr)):
            reads.append(fn.__name__)
            return fn(self)
        monkeypatch.setattr(perm.PermGroup, attr, counted)
    assert G.sylow2(P) is P and reads == []


@pytest.mark.parametrize("name", ["s4", "d8", "c2xs3", "c3xs4", "psl27"])
def test_o2_core_matches_oracle(name):
    G = builtin_group(name)
    assert frozenset(map(tuple, G.o2_core().elements)) == conjugate_intersection_o2_core(G)


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
def test_perm_order_against_sympy(images):
    assert perm.perm_order(tuple(images)) == Permutation(images).order()


def test_nu():
    assert perm.nu(8) == 3
    assert perm.nu(168) == 3
    assert perm.nu(1) == 0


def test_involution_counts():
    assert len(builtin_group("c3").involution_indices()) == 1
    assert len(builtin_group("d8").involution_indices()) == 6


def test_generator_file_roundtrip(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# D8\n(1 2 3 4)\n\n(1 3)\n")
    gens = perm.read_generator_file(str(path))
    G = perm.generate(gens)
    assert G.order == 8


@pytest.mark.parametrize("name", ["s4", "c2xs3", "psl27", "a7", "pgl2_11"])
def test_engine_against_sympy(name):
    # orders, class element orders, centralizers and Sylow-2 order against
    # sympy.combinatorics, which works from a base and strong generating set
    G = builtin_group(name)
    S = PermutationGroup([Permutation(list(g)) for g in G.generators])
    assert G.order == S.order()
    for c in G.conjugacy_classes():
        rep = Permutation(list(G.elements[c.rep]))
        assert c.order == rep.order()
        assert G.centralizer(G.elements[c.rep]).order == S.centralizer(rep).order()
    a, b = G.generators[0], G.elements[G.conjugacy_classes()[1].rep]
    pair = S.centralizer(PermutationGroup([Permutation(list(a)), Permutation(list(b))]))
    assert set(map(tuple, G.centralizer(a, b).elements)) == {tuple(p.array_form)
                                                            for p in pair.elements}
    assert G.sylow2().order == S.sylow_subgroup(2).order()


def _table_case(name):
    if name == "psl27 C*(c)":
        # an extended centralizer: a subgroup that reads its root's rows
        G = builtin_group("psl27")
        c = next(c for c in G.conjugacy_classes() if c.order == 4)
        return G.extended_centralizer(G.elements[c.rep])
    return _group(name)


def _check_runs_and_depths(G):
    # the runs tile slots 1..n-1 in (depth, letter) order, each node one
    # step from its parent along the rows x -> x·g_k, and depth the BFS
    # distance from 1
    G = G._parent or G
    rights, runs, place = G._tables
    unplace = sorted(range(G.order), key=place.__getitem__)
    one = G.identity_idx()
    assert place[one] == 0 and sorted(place) == list(range(G.order))
    assert [s for lo, hi, _k, _ups in runs for s in range(lo, hi)] == list(range(1, G.order))
    distance, frontier = {one: 0}, [one]
    while frontier:
        reached = []
        for x in frontier:
            for y in (row[x] for row in rights):
                if y not in distance:
                    distance[y] = distance[x] + 1
                    reached.append(y)
        frontier = reached
    depth = [0] * G.order  # by slot
    keys = []
    for lo, hi, k, ups in runs:
        assert len(ups) == hi - lo
        for s, up in zip(range(lo, hi), ups):
            assert up < lo and rights[k][unplace[up]] == unplace[s]
            depth[s] = depth[up] + 1
        assert len({depth[s] for s in range(lo, hi)}) == 1
        keys.append((depth[lo], k))
    assert keys == sorted(set(keys))
    assert [depth[place[x]] for x in range(G.order)] == [distance[x] for x in range(G.order)]


@pytest.mark.parametrize("name", ["s4", "c2xs3", "psl27", "a7", "pgl2_11", "M11",
                                  "psl27 C*(c)"])
def test_index_tables_match_tuple_products(name):
    G = _table_case(name)
    els, idx = G.elements, G.idx
    step = max(1, G.order // 12)
    for h in sorted(set(range(0, G.order, step)) | {idx(g) for g in G.generators[:3]}):
        assert list(G.left(h)) == [idx(perm.mul(els[h], x)) for x in els]
    for k, g in enumerate(G.generators):
        R = [idx(perm.mul(x, g)) for x in els]
        L_inv = G.left(G.inv[idx(g)])
        assert [G.inv[L_inv[G.inv[x]]] for x in range(G.order)] == R
        if G._parent is None:
            assert list(G._tables[0][k]) == R
        # the class search's rows x -> g^-1·x·g, kept on a root group only
        assert list(G.conjugation_rows()[k]) == [idx(perm.conj(x, g)) for x in els]
    assert (G._conjugations is G.conjugation_rows()) == (G._parent is None)
    _check_runs_and_depths(G)
    assert list(G.inv) == [_inv_idx(G, x) for x in range(G.order)]
    # a walk of the root's rows from c gives c^x for every element x of the root
    root = G._parent or G
    for c in sorted({0, G.order // 2, G.order - 1}):
        r = root.idx(els[c])
        assert G._conjugates(r) == [root.idx(perm.conj(els[c], x)) for x in root.elements]


def test_table_route_makes_no_tuple_products(monkeypatch):
    calls = []
    for fn in (perm.mul, perm.conj):
        def counted(*args, fn=fn):
            calls.append(fn.__name__)
            return fn(*args)
        for mod in [m for n, m in sys.modules.items() if n.startswith("workbench")]:
            for name in [n for n, v in vars(mod).items() if v is fn]:  # under any name
                monkeypatch.setattr(mod, name, counted)
    # the reference census of each D_2^d is built once per process, and
    # checks its normal forms against tuple products on purpose
    pgroup._reference_fingerprints(3)
    calls.clear()
    G = builtin_group("pgl2_11")  # degree 12: the closure keys elements by bytes
    assert calls == []
    reps = [G.elements[c.rep] for c in G.conjugacy_classes()]
    for p in reps:
        G.centralizer(p)
        G.extended_centralizer(p).centralizer(p).sylow2()
    G.involution_indices()
    table = dixon_table(G)
    assert modrep.involution_perm_module(G).dim == len(G.involution_indices())
    couples = [b.couple for b in blocks.analyze_blocks(table) if b.couple]
    assert any(c.etype for c in couples)  # a dihedral D is classified, so pgroup ran too
    assert calls == []


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_classes_and_centralizers_against_sympy(gens):
    G = perm.generate([tuple(g) for g in gens])
    S = PermutationGroup([Permutation(list(g)) for g in gens])
    assert sum(c.size() for c in G.conjugacy_classes()) == G.order == S.order()
    for c in G.conjugacy_classes():
        rep = G.elements[c.rep]
        cent = S.centralizer(Permutation(list(rep))).order()
        assert c.size() * cent == S.order()
        assert G.centralizer(rep).order == cent
        assert c.is_real == (perm.inverse(rep) in {tuple(G.elements[m]) for m in c.members})
    # classes of subgroups cut out by index, which have no closure rows: the
    # centralizer and C*(g) of an element g of the largest class
    g = G.elements[G.conjugacy_classes()[-1].rep]
    C = S.centralizer(Permutation(list(g)))
    flip = next((x for x in G.elements if perm.conj(g, x) == perm.inverse(g)), None)
    C_star = C if flip is None else PermutationGroup(C.generators + [Permutation(list(flip))])
    for H, T in ((G.centralizer(g), C), (G.extended_centralizer(g), C_star)):
        assert H._parent is not None or H is G
        got = {frozenset(tuple(H.elements[m]) for m in c.members) for c in H.conjugacy_classes()}
        assert got == {frozenset(tuple(x.array_form) for x in cls) for cls in T.conjugacy_classes()}
        for c in H.conjugacy_classes():
            assert c.is_real == (perm.inverse(H.elements[c.rep]) in
                                 {tuple(H.elements[m]) for m in c.members})


def _check_against_tuple_closure(G):
    # elements, index, the right rows, every left row and inv equal the
    # tuple-product closure's and its per-element walk down the BFS tree
    elements, index, rights, tree = tuple_closure(G.generators, G.degree)
    assert list(map(tuple, G.elements)) == elements
    assert {tuple(p): i for p, i in G.index.items()} == index
    if G._parent is None:
        assert [list(row) for row in G._tables[0]] == rights
    _check_runs_and_depths(G)
    lefts = [tree_walk(tree, rights, h, G.order) for h in range(G.order)]
    assert [list(G.left(h)) for h in range(G.order)] == lefts
    one = index[perm.identity(G.degree)]
    inv_gens = [lefts[index[perm.inverse(g)]] for g in G.generators]
    assert list(G.inv) == tree_walk(tree, inv_gens, one, G.order)
    for x, L in enumerate(lefts):  # x^0 .. x^|x|, the last back at 1, by the left row
        pw = [one]
        for _ in range(perm.perm_order(G.elements[x])):
            pw.append(L[pw[-1]])
        assert G.powers(x, len(pw)) == pw and pw[-1] == one


def _moved(gens, relabel, degree):
    """Generators on len(relabel) points, carried onto `degree` points."""
    out = []
    for g in gens:
        images = list(range(degree))
        for i, j in enumerate(g):
            images[relabel[i]] = relabel[j]
        out.append(tuple(images))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.lists(st.permutations(range(m)), max_size=3),
    st.sampled_from([m, 9, 255, 256, 257, 300]).flatmap(lambda n: st.permutations(range(n))))))
def test_closure_and_walk_match_tuple_oracle(case):
    # byte keys up to degree 256, tuple keys above; points moved anywhere
    gens, relabel = case
    G = perm.generate(_moved(gens, relabel, len(relabel)), degree=len(relabel))
    _check_against_tuple_closure(G)
    H = G.centralizer(G.elements[-1])
    if H._parent is not None:
        _check_against_tuple_closure(H)


@pytest.mark.parametrize("degree,cycles", [
    (1, []), (1, ["()"]), (256, ["(1 256)(2 255 3)", "(4 5 6 7)"]),
    (256, ["(" + " ".join(map(str, range(1, 257))) + ")"]),
    (257, ["(1 257)(2 256 3)", "(4 5 6 7)"])])
def test_closure_routes_match_tuple_oracle(degree, cycles):
    G = perm.generate([perm.parse_cycles(c, degree=degree) for c in cycles], degree=degree)
    assert G.degree == degree
    _check_against_tuple_closure(G)


def test_subgroup_rows_match_tuple_oracle():
    G = builtin_group("psl27")
    t = next(p for p in G.elements if perm.perm_order(p) == 2)
    H = G.centralizer(t)
    assert H._parent is G and H.order == 8
    _check_against_tuple_closure(H)
