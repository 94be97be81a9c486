import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import Matrix
from sympy.combinatorics import Permutation

from workbench import chartab, linalg
from workbench.chartab import (_class_matrix, _eigenspaces, _poly_mul_modp, _roots_modp,
                               dixon_table)
from workbench.errors import CapExceeded, InvariantViolation
from workbench.groups import builtin_group
from workbench.perm import generate, parse_cycles, read_generator_file

from oracles import (Cyclotomic, brute_force_roots, exact_chars, exact_conj_char,
                     exact_fs_indicator, exact_is_two_rational, exact_two_conjugacy_families,
                     inner_product, minimized, psl2_degree_multiset, structure_constants)
from test_acceptance import BUILTINS

GROUP_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "groups"

_cache = {}


def table(name):
    if name not in _cache:
        _cache[name] = dixon_table(builtin_group(name))
    return _cache[name]


def test_s3_degrees():
    assert sorted(table("s3").degrees) == [1, 1, 2]


def test_psl27_degrees_against_formula_oracle():
    assert sorted(table("psl27").degrees) == psl2_degree_multiset(7)


def test_psl2q_degrees_more_q():
    assert sorted(dixon_table(builtin_group("psl2_5")).degrees) == psl2_degree_multiset(5)
    assert sorted(dixon_table(builtin_group("psl2_11")).degrees) == psl2_degree_multiset(11)


def test_a7_degrees():
    # pinned by exact orthogonality of the computed table (checked below);
    # multiset agrees with the brute-force class-algebra computation
    assert sorted(table("a7").degrees) == [1, 6, 10, 10, 14, 14, 15, 21, 35]


def test_orthogonality_exact():
    for name in ("s3", "s4", "d16", "sd16", "psl27", "c16", "a7"):
        T = table(name)
        for i in range(T.k):
            for l in range(i, T.k):
                expect = 1 if i == l else 0
                assert inner_product(T, i, l) == expect, (name, i, l)


def test_degrees_divide_order():
    for name in ("s5", "psl27", "a7"):
        T = table(name)
        assert all(T.group.order % d == 0 for d in T.degrees)


def test_fs_trivial_char():
    T = table("s4")
    triv = next(i for i in range(T.k)
                if all(v == Cyclotomic.rational(1) for v in exact_chars(T)[i]))
    assert T.fs_indicator(triv) == 1


def test_fs_psl27():
    T = table("psl27")
    by_degree = {}
    for i, d in enumerate(T.degrees):
        by_degree.setdefault(d, []).append(T.fs_indicator(i))
    assert by_degree[3] == [0, 0]
    assert by_degree[1] == [1] and by_degree[6] == [1]
    assert by_degree[7] == [1] and by_degree[8] == [1]


def test_fs_s5_all_plus_one():
    T = table("s5")
    assert T.fs_vector() == (1,) * T.k


def test_fs_involution_count_identity():
    for name in ("s3", "s4", "s5", "d8", "d16", "sd16", "c16", "psl27", "c2xs3"):
        T = table(name)
        total = sum(e * d for e, d in zip(T.fs_vector(), T.degrees))
        assert total == len(T.group.involution_indices()), name


def test_real_and_two_rational_flags():
    T = table("psl27")
    for i, d in enumerate(T.degrees):
        if d == 3:
            # values in Q(sqrt(-7)): odd-conductor irrationality, so the
            # pair is 2-rational yet nonreal
            assert not T.is_real_char(i)
            assert T.is_two_rational(i)
        if d in (1, 6, 7, 8):
            assert T.is_real_char(i) and T.is_two_rational(i)
    # rational-valued characters carry both flags
    T4 = table("s4")
    assert all(T4.is_real_char(i) and T4.is_two_rational(i) for i in range(T4.k))


def test_two_rational_c16_and_d16():
    # C16: the faithful linear characters are neither real nor 2-rational
    T = table("c16")
    faithful = [i for i in range(T.k)
                if any(v == Cyclotomic.root(16) for v in exact_chars(T)[i])]
    assert faithful
    for i in faithful:
        assert not T.is_two_rational(i)
        assert not T.is_real_char(i)
    # D16: the sqrt(2)-valued degree-2 character is real but not 2-rational
    T2 = table("d16")
    wit = [i for i in range(T2.k)
           if T2.degrees[i] == 2 and T2.is_real_char(i) and not T2.is_two_rational(i)]
    assert wit


def test_conj_char_pairs():
    T = table("psl27")
    threes = [i for i, d in enumerate(T.degrees) if d == 3]
    assert T.conj_char(threes[0]) == threes[1]
    assert T.conj_char(threes[1]) == threes[0]


def test_fs_constant_on_galois_families():
    T = table("d16")
    fams = T.two_conjugacy_families(range(T.k))
    for fam in fams:
        vals = {T.fs_indicator(i) for i in fam}
        assert len(vals) == 1


def test_class_cap():
    with pytest.raises(CapExceeded):
        dixon_table(builtin_group("c64"))


@pytest.mark.parametrize("name", ["s4", "c2xs3", "psl27"])
def test_structure_constants_brute_force(name):
    # the constants dixon_table counts are the ones its characters satisfy:
    # a_ijl = |C_i||C_j|/|G| sum_chi chi(g_i) chi(g_j) conj(chi(g_l)) / chi(1),
    # compared with #{(x, y) in C_i x C_j : xy = g_l} over all pairs
    T = table(name)
    want = structure_constants(T.group, T.classes)
    sizes = [c.size() for c in T.classes]
    for i in range(T.k):
        for j in range(T.k):
            for l in range(T.k):
                total = Cyclotomic.rational(0)
                for row, d in zip(exact_chars(T), T.degrees):
                    total = total + row[i] * row[j] * row[l].galois(-1) * Fraction(1, d)
                total = total * Fraction(sizes[i] * sizes[j], T.group.order)
                assert total == want[i][j][l], (name, i, j, l)


def _lines(spaces, p):
    """Each basis vector scaled to a leading 1."""
    return [[[x * pow(next(c for c in v if c), -1, p) % p for x in v] for v in vecs]
            for vecs in spaces]


@pytest.mark.parametrize("eigenvalues", [(2, 3, 5, 7), (2, 3, 5, 2)])
def test_krylov_lines_fall_back_to_nullspace(monkeypatch, eigenvalues):
    # A = P diag P^-1 over GF(13) with eigenvectors (1,1,0,0), (0,0,1,0),
    # (1,0,0,0), (0,0,0,1); e = (1,1,1,1) has no component on the third,
    # a simple eigenspace, so g(A)e = 0 there and the nullspace must fire
    # (and once more for the repeated root of the second case)
    p = 13
    P = Matrix([[1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    A = (P * Matrix.diag(*eigenvalues) * P.inv_mod(p)).applyfunc(lambda x: x % p)
    A = [[int(x) for x in A.row(r)] for r in range(4)]
    calls = []
    nullspace = linalg.nullspace

    def counted(rows, q):
        calls.append(rows)
        return nullspace(rows, q)

    monkeypatch.setattr(linalg, "nullspace", counted)
    got = _eigenspaces(A, p)
    assert len(calls) == (1 if len(set(eigenvalues)) == 4 else 2)
    roots = sorted(set(eigenvalues))
    want = [nullspace([[(x - lam * (r == c)) % p for c, x in enumerate(row)]
                       for r, row in enumerate(A)], p) for lam in roots]
    assert _lines(got, p) == _lines(want, p)
    assert [len(vecs) for vecs in got] == [eigenvalues.count(lam) for lam in roots]


def _poly_from_roots(roots, lead, p):
    """lead * prod (x - r) mod p, coefficients lowest first."""
    f = [lead % p]
    for r in roots:
        f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    return f


# the Dixon primes of the perfbench/groups files that `scan` answers (the four
# it refuses for their field degree never build a table)
@pytest.mark.parametrize("p", [181, 271, 331, 421, 547, 661, 1093, 1321])
def test_roots_match_brute_force(p):
    # split polynomials of degrees 1-25 with repeated roots (drawn from a
    # pool of about half the degree, 0 among the candidates)
    rng = random.Random(p)
    for deg in range(1, 26):
        pool = [0] + rng.sample(range(1, p), max(1, deg // 2))
        roots = [rng.choice(pool) for _ in range(deg)]
        f = _poly_from_roots(roots, rng.randrange(1, p), p)
        assert _roots_modp(f, p) == brute_force_roots(f, p) == sorted(set(roots)), (p, deg)


def test_roots_refuse_a_factor_that_does_not_split():
    # x^2 - 2 is irreducible mod 181 (2 is a non-residue there); the shift
    # loop is bounded by p, so the search raises instead of looping
    p = 181
    assert pow(2, (p - 1) // 2, p) == p - 1
    f = _poly_mul_modp([-2 % p, 0, 1], _poly_from_roots([1, 1, 5], 3, p), p)
    with pytest.raises(InvariantViolation, match="does not split"):
        _roots_modp(f, p)


def test_scalar_spaces_skip_the_eigenspace_search(monkeypatch):
    # route guard: on PGL(2,13) three of the five class matrices the loop
    # builds act as a scalar on every space left to split, so only two
    # eigenspace searches run (five did before the scalar check)
    calls = Counter()
    for name in ("_eigenspaces", "_class_matrix"):
        def counted(*args, _f=getattr(chartab, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(chartab, name, counted)
    T = dixon_table(generate(read_generator_file(GROUP_FILES / "pgl2_13.txt")))
    assert calls == {"_eigenspaces": 2, "_class_matrix": 5}
    assert T.k == 15


def test_subgroup_cut_out_by_index_gets_the_same_table():
    # such a subgroup has no closure slots (`PermGroup.slots` gives element
    # order), and its table equals that of the same group closed afresh
    G = builtin_group("pgl27")
    for c in G.conjugacy_classes()[1:4]:
        H = G.centralizers(G.elements[c.rep])[1]
        assert H is not G
        fresh = generate([tuple(p) for p in H.elements])
        assert dixon_table(H).to_json() == dixon_table(fresh).to_json()


@pytest.mark.parametrize("name", ["s4", "c2xs3", "psl27"])
def test_class_matrices_match_brute_force(name):
    # each class matrix, built from one left row, is the brute-force
    # structure constants mod p
    T = table(name)
    want = structure_constants(T.group, T.classes)
    inv_sizes = [pow(c.size(), -1, T.prime) for c in T.classes]
    member_slots = [T.group.slots(c.members) for c in T.classes]
    for i, c in enumerate(T.classes):
        assert _class_matrix(T.group, c, inv_sizes, T.prime, member_slots) == \
            [[a % T.prime for a in row] for row in want[i]], (name, i)


# groups with characters of FS indicator -1: 1-based generators, and the FS vector
FS_MINUS_ONE = {
    "q8": (("(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"), (1, 1, 1, 1, -1)),
    "sl2_3": (("(3 4 5)(6 8 7)", "(1 4 7)(2 8 5)"), (0, 1, 0, 0, -1, 0, 1)),
}


def _exact_route_group(name):
    if name in FS_MINUS_ONE:
        return generate([parse_cycles(c) for c in FS_MINUS_ONE[name][0]])
    if name.endswith(".txt"):
        return generate(read_generator_file(GROUP_FILES / name))
    return builtin_group(name)


# every perfbench/groups file but pgl2_17 and psl2_23, whose exact FS sums
# lift past the conductor cap (1224 and 1518)
EXACT_ROUTE_FILES = ("M11.txt", "S6.txt", "S7.txt", "a7.txt", "pgl2_11.txt",
                     "pgl2_13.txt", "psl2_11.txt", "psl2_13.txt", "psl2_17.txt",
                     "psl2_19.txt", "psl2_5xpsl2_5.txt", "psl2_9.txt", "s5xs3.txt")


@pytest.mark.parametrize("name", BUILTINS + ("pgl2_11",) + EXACT_ROUTE_FILES + tuple(FS_MINUS_ONE))
def test_mod_p_invariants_match_exact_routes(name):
    T = dixon_table(_exact_route_group(name))
    rows = range(T.k)
    assert T.fs_vector() == tuple(exact_fs_indicator(T, i) for i in rows)
    if name in FS_MINUS_ONE:
        assert T.fs_vector() == FS_MINUS_ONE[name][1]
    assert [T.conj_char(i) for i in rows] == [exact_conj_char(T, i) for i in rows]
    assert [T.is_two_rational(i) for i in rows] == \
        [exact_is_two_rational(T, i) for i in rows]
    assert T.two_conjugacy_families(rows) == exact_two_conjugacy_families(T, rows)


@pytest.mark.parametrize("name", ["s4", "psl27", "a7"])
def test_power_maps_against_sympy(name):
    T = table(name)
    G = T.group
    for r in (-1, 2, 3, 5):
        want = [G.class_of[G.idx(tuple((Permutation(list(G.elements[c.rep])) ** r).array_form))]
                for c in T.classes]
        assert T._power_map(r) == want, r


ALL_FILES = tuple(sorted(p.name for p in GROUP_FILES.glob("*.txt")))


@pytest.mark.parametrize("name", BUILTINS + ("pgl2_11",) + ALL_FILES)
def test_reported_conductors_match_galois_descent(name):
    # to_json reads each value's conductor off the power maps; the oracle
    # descends one prime at a time on the exact value
    T = dixon_table(_exact_route_group(name))
    want = [[minimized(v).to_json() for v in row] for row in exact_chars(T)]
    assert T.to_json()["values"] == want


# sha256 of the canonical JSON of `dixon_table(G).to_json()` (sorted keys, no
# spaces): the table must not depend on the order the class matrices are taken in
TABLE_SHA256 = {
    "d8": "75b1b7a54ac308614db76ca4793d39b1caa60f2d82ffa4a217d01cf3d581ad6b",
    "d16": "3b568f08ab0ba3f60eceb9897b480b83040540b9d728eb881fa59812ad54c9d2",
    "sd16": "7ec87e3f74aecc0823d7e17c52222b212e7f19539bdf5ae6a46a2de760113b9c",
    "s3": "f66cb3eedcbf9b63f39e11191545fcdd683ea57239259a4cd5bf260e734321a9",
    "s4": "b90f8be510051f44542031679a996821d29ac2a7bf0c462abfd124329982edd7",
    "s5": "32102d0d1f1cdd9c47662da6a77061c028b8b6b92807d6a36860b1454dc0c648",
    "a7": "d85a31a839a61511cf09e82731acc2f6b25c6640c8a4b04f658bd2d8131b7da7",
    "psl27": "63b4dc31a9e8f2095015f5736a6682c7a3bc40ed1f96d893535160aa49446c7d",
    "pgl27": "fb9ca5f71ce7c15007df94f73261b8b87cd41b5848396efb66f6f0fae800353a",
    "psl2_5": "95c49c0b094e06150da65a292d36d5a396e57f52f6df37df93b84a29a4ffa87d",
    "psl2_9": "1c366e79088376f14de0850570963f0f7ea5b11bda0b4b537a872c5902a35be2",
    "psl2_11": "b94ebe5b093c08b9993b3afb294fe3a1fa8752854906de13b7d38e3066b5c3b9",
    "pgl2_5": "32102d0d1f1cdd9c47662da6a77061c028b8b6b92807d6a36860b1454dc0c648",
    "c3": "911ca2fe10d84b38a9d6ae4117cd8e0a1da56e3348b01d8777e6be60327c4d8b",
    "c7": "9870c17e9fd4a5b3d84465371c03930c502c8983b244fe2218a4d51ab5fdea22",
    "c16": "088fc62cbbdc3d37925575f2a9912a365d5051b8047e219d672f052fb6c23ff9",
    "c2xs3": "3fbb330c77ac10c110581d16f3b70f37d736fd639562b253b7b1b1656553899c",
    "pgl2_11": "209550ce68bd822e90ca33304f947b41261e4b929c4e6749a935a7076c02cd02",
    "M11.txt": "34fd774d7c13db374e8f789572eec2a415c8956ae786bae6a78383ce043f777d",
    "S6.txt": "39da24eb6cefff346d4787ab6d59bc92658967d119d634c749a1a662ae7bc626",
    "S7.txt": "0daac347d8196089c9221d2409df4bfef7dfd7b5de1b350f9ed63f4da05a0bfc",
    "a7.txt": "d85a31a839a61511cf09e82731acc2f6b25c6640c8a4b04f658bd2d8131b7da7",
    "pgl2_11.txt": "209550ce68bd822e90ca33304f947b41261e4b929c4e6749a935a7076c02cd02",
    "pgl2_13.txt": "98b5ac46af37e4cff485b80541431b68cd476c42c616a953d6b914d8f62f5354",
    "pgl2_17.txt": "5be7d6236c8c5b4ec92f768426a7cb49bf222f9f64f82924a1b128a08edd89f3",
    "psl2_11.txt": "b94ebe5b093c08b9993b3afb294fe3a1fa8752854906de13b7d38e3066b5c3b9",
    "psl2_13.txt": "8d8185154ff5a050f0eaa1ae0ace75854cf83255989093bc98b6238fbd2a2d09",
    "psl2_17.txt": "01031f8c22908de49a3be09e6773e00f34dc7c4095f2c711923253a5434c7ba3",
    "psl2_19.txt": "2a1eccc78da39903482a8ab53def84b558dc93ead705dbd8b291247ff76dba66",
    "psl2_23.txt": "ac0a4c113a1616c7489871f53b003eff9bc4bc054182c69d8278c0396961b3fe",
    "psl2_5xpsl2_5.txt": "9125224d8ad72153e22bf6b452d24f840b93f6b3619c980d6c0b64ac6a9d3bd8",
    "psl2_9.txt": "1c366e79088376f14de0850570963f0f7ea5b11bda0b4b537a872c5902a35be2",
    "s5xs3.txt": "c916a84d1e6f7ecb3ae853877c4eef4c7f4ddb54f07649e1fdd0aecb40212d65",
}


@pytest.mark.parametrize("name", sorted(TABLE_SHA256))
def test_table_digest(name):
    T = dixon_table(_exact_route_group(name))
    canonical = json.dumps(T.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == TABLE_SHA256[name]
