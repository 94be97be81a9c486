"""Dihedral 2-groups, their degree-2 extensions, and subpair reality.

A DihedralFrame fixes the presentation D = <s, t | s^(2^(d-1)), t^2, (st)^2>
with the named elements s_i = s^(2^(d-1-i)) and subgroups S_i = <s_i>,
X_i = <s_(i-1), t>, Y_i = <s_(i-1), st>.  Every element of D is written in
the normal form s^k t^eps as the pair (k, eps), 0 <= k < 2^(d-1), and
s^k1 t^e1 * s^k2 t^e2 = s^(k1 + (-1)^e1 k2) t^(e1 + e2).

An extension E = D<e> is fixed by alpha = (a, b), the automorphism
s -> s^a, t -> s^(-b) t with e y = alpha(y) e, and by u = e^2 in D.  Its
elements are the normal forms (k, eps, i) of s^k t^eps e^i, multiplied as
(x, i)(y, j) = (x alpha^i(y) u^(ij), i + j).  The right-regular action on
these 2|D| forms makes E a permutation group, so all five isomorphism
types (a)-(e) are concrete groups with distinguished coset representative e.
Past the three generators, every product, class, centralizer and
fingerprint of E is read off the regular permutations its closure holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .errors import (BadDegree, BadIndex, InvariantViolation, NotDihedral,
                     TypeUnavailable, Unclassifiable)
from .perm import PermGroup, check_cap, mul, nu

EXT_TYPES = ("a", "b", "c", "d", "e")

_S, _T = (1, 0), (0, 1)


@dataclass(frozen=True)
class DihedralFrame:
    d: int
    group: PermGroup       # D acting naturally on Z/2^(d-1)
    s: tuple
    t: tuple

    @property
    def order(self) -> int:
        return 1 << self.d

    @property
    def forms(self) -> list:
        """The normal forms (k, eps) of D, the identity first."""
        return [(k, eps) for eps in (0, 1) for k in range(self.order // 2)]

    def s_i(self, i: int) -> tuple:
        """s_i = s^(2^(d-1-i)), an element of order 2^i."""
        if not 1 <= i <= self.d - 1:
            raise ValueError("s_i needs 1 <= i <= d-1")
        return (1 << (self.d - 1 - i), 0)

    def mul(self, x: tuple, y: tuple) -> tuple:
        (k1, e1), (k2, e2) = x, y
        return ((k1 - k2 if e1 else k1 + k2) % (self.order // 2), (e1 + e2) % 2)

    def twist(self, alpha: tuple, x: tuple) -> tuple:
        """alpha(s^k t^eps) = s^(a k - b eps) t^eps for alpha = (a, b)."""
        (a, b), (k, eps) = alpha, x
        return ((a * k - b * eps) % (self.order // 2), eps)

    def perm(self, x: tuple) -> tuple:
        """s^k t^eps acting on Z/2^(d-1) as y -> (-1)^eps (y + k)."""
        k, eps = x
        m = self.order // 2
        return tuple((-(y + k) if eps else y + k) % m for y in range(m))


def build_dihedral(d: int, cap: int | None = None) -> DihedralFrame:
    """D_{2^d} acting naturally on 2^(d-1) points; its extensions share `cap`."""
    if d < 3:
        raise BadDegree("dihedral frame needs d >= 3")
    check_cap(1 << d, cap)
    m = 1 << (d - 1)
    s = tuple((x + 1) % m for x in range(m))
    t = tuple((-x) % m for x in range(m))
    frame = DihedralFrame(d=d, group=PermGroup([s, t], cap=cap), s=s, t=t)
    # the normal forms are D's elements, and their product is D's product
    forms, perm = frame.forms, frame.perm
    if (sorted(map(frame.group.key, map(perm, forms))) != frame.group.elements
            or any(perm(frame.mul(x, g)) != mul(perm(x), perm(g))
                   for x in forms for g in (_S, _T))):
        raise InvariantViolation(f"D_{2 * m} normal forms fail")
    return frame


# ---------------------------------------------------------------------------
# crossed products D<e>
# ---------------------------------------------------------------------------

def _consistent_squares(frame: DihedralFrame, alpha: tuple) -> list:
    """All u in D with alpha(u) = u and alpha^2(x) = u x u^-1: exactly the
    e^2 = u for which the product on the forms (x, i) is associative."""
    if alpha[0] % 2 == 0:
        raise InvariantViolation(f"s -> s^{alpha[0]} is not an automorphism of D")

    def alpha2(x):
        return frame.twist(alpha, frame.twist(alpha, x))

    # generator check suffices: both sides are automorphisms
    return [u for u in frame.forms if frame.twist(alpha, u) == u
            and all(frame.mul(alpha2(x), u) == frame.mul(u, x) for x in (_S, _T))]


class ExtensionFrame:
    """E = D<e> as a regular permutation group on the normal forms.

    `points` lists the forms (k, eps, i), the identity first, so the points
    below |D| are D: (k, eps, i) is the point (2i + eps)·m + k, m = |D|/2.
    The right-regular permutations of s, t and e are written down by index
    arithmetic (`_generator_rows`, equal to right multiplication by `mul`);
    their closure `E` holds every other one, and `rows[x]` is the one that
    sends the identity to x.  So g·h is the point rows[h][g].
    """

    def __init__(self, frame: DihedralFrame, alpha: tuple, u: tuple, etype: str | None):
        self.frame = frame
        self.alpha = alpha
        self.u = u
        self.etype = etype
        check_cap(2 * frame.order, frame.group.cap)
        self.points = [x + (i,) for i in (0, 1) for x in frame.forms]
        self._index = {p: n for n, p in enumerate(self.points)}
        self.s, self.t, self.e = self._generator_rows()
        self.E = PermGroup([self.s, self.t, self.e], degree=len(self.points),
                           cap=frame.group.cap)
        if self.E.order != len(self.points):
            raise InvariantViolation("the crossed product D<e> is not of order 2|D|")
        self.rows = self.E.elements  # sorted, so by the image of the identity
        self._gens = [g[0] for g in (self.s, self.t, self.e)]  # the points s, t, e

    def _generator_rows(self) -> tuple:
        """The points p·s, p·t and p·e for every point p = (k, eps, i).  With
        alpha = (a, b) and u = (u_k, u_eps): s adds (-1)^eps·(a if i else 1)
        to k; t adds (-1)^eps·(-b if i else 0) and flips eps; e sends i = 0
        to i = 1, and for i = 1 multiplies by u and sets i = 0."""
        m = self.frame.order // 2
        (a, b), (uk, ue) = self.alpha, self.u
        s, t, e = [], [], []
        for i, eps in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sign, ks = (-1 if eps else 1), range(m)
            ds, dt = sign * (a if i else 1), sign * (-b if i else 0)
            s += [(2 * i + eps) * m + (k + ds) % m for k in ks]
            t += [(2 * i + 1 - eps) * m + (k + dt) % m for k in ks]
            e += ([(2 + eps) * m + k for k in ks] if i == 0
                  else [(eps ^ ue) * m + (k + sign * uk) % m for k in ks])
        return tuple(s), tuple(t), tuple(e)

    def mul(self, p: tuple, q: tuple) -> tuple:
        x, i, y, j = p[:2], p[2], q[:2], q[2]
        if i:
            y = self.frame.twist(self.alpha, y)
        xy = self.frame.mul(x, y)
        if i and j:
            xy = self.frame.mul(xy, self.u)
        return xy + ((i + j) % 2,)

    def fingerprint(self) -> tuple:
        """`regular_fingerprint` of E on its rows, with D the points below |D|."""
        return regular_fingerprint(self.rows, self._gens, 0,
                                   (range(len(self.rows) // 2), self._gens[:2]))

    def conjugacy_class(self, x: int) -> set:
        """The points conjugate to the point x in E."""
        return _orbit([x], _conjugations(self.rows, self._gens, 0))

    # -- named subgroups of D ---------------------------------------------

    def _kind_index(self, name: str) -> tuple:
        """(kind, i) of a subgroup name, kind in "SXY": 1 = S_0, S = S_(d-1), D = X_d."""
        d = self.frame.d
        if name not in self.named_subgroup_names():
            raise ValueError(f"unknown subgroup name {name!r}")
        name = {"1": "S_0", "S": f"S_{d - 1}", "D": f"X_{d}"}.get(name, name)
        return name[0], int(name[2:])

    def named_subgroup(self, name: str) -> frozenset:
        """Normal forms (k, eps) of one of 1, S_i, S, X_i, Y_i, D."""
        d = self.frame.d
        kind, i = self._kind_index(name)
        if kind == "S":
            return frozenset((k, 0) for k in range(0, 1 << (d - 1), 1 << (d - 1 - i)))
        q = 1 << (d - i)
        if kind == "X":
            return frozenset((k, eps) for k, eps in self.frame.forms if k % q == 0)
        return frozenset((k, eps) for k, eps in self.frame.forms if (k - eps) % q == 0)

    def named_subgroup_names(self) -> list:
        return _subgroup_names(self.frame.d)

    def named_generators(self, name: str) -> list:
        """At most two generators, as normal forms (k, eps), of one of 1, S_i,
        S, X_i, Y_i, D: S_i = <s_i>, X_i = <s_(i-1), t>, Y_i = <s_(i-1), st>,
        with X_1 = <t> and Y_1 = <st>."""
        kind, i = self._kind_index(name)
        if kind == "S":
            return [self.frame.s_i(i)] if i else []
        top = _T if kind == "X" else (1, 1)  # t or st
        return [top] if i == 1 else [self.frame.s_i(i - 1), top]

    def centralizer(self, xs) -> list:
        """The points g of E with g·x = x·g for every x in xs, each x in
        normal form (k, eps, i)."""
        C = list(range(len(self.rows)))
        for px in map(self._index.__getitem__, xs):
            rx = self.rows[px]
            C = [g for g in C if rx[g] == self.rows[g][px]]
        return C

    def centralizer_in_D(self, x: tuple) -> frozenset:
        """C_D(x) as normal forms (k, eps), for x in normal form (k, eps, i)."""
        half = len(self.rows) // 2
        return frozenset(self.points[y][:2] for y in self.centralizer([x]) if y < half)


def _subgroup_names(d: int) -> list:
    return (["1"] + [f"S_{i}" for i in range(1, d - 1)] + ["S"]
            + [f"X_{i}" for i in range(1, d)] + [f"Y_{i}" for i in range(1, d)] + ["D"])


def build_extension(frame: DihedralFrame, etype: str) -> ExtensionFrame:
    """One concrete extension of each isomorphism type (a)-(e)."""
    d = frame.d
    if etype in ("a", "b"):
        alpha = (1, 0)
    elif etype in ("c", "d"):
        alpha = (-1, 1)
    elif etype == "e":
        if d < 4:
            raise TypeUnavailable("type (e) needs d >= 4")
        alpha = ((1 << (d - 2)) + 1, 0)
    else:
        raise ValueError(f"unknown extension type {etype!r}")
    u = frame.s_i(1) if etype in ("b", "d") else (0, 0)
    if u not in _consistent_squares(frame, alpha):
        raise InvariantViolation(f"e^2 = u is not consistent for type ({etype})")
    ext = ExtensionFrame(frame, alpha, u, etype)
    _check_type_relations(ext, etype)
    return ext


def _check_type_relations(ext: ExtensionFrame, etype: str):
    """e^2 and the conjugates g^e = e^-1 g e of g = s, t, checked as g e = e g^e."""
    d = ext.frame.d
    s, t, e = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    s1 = ext.frame.s_i(1) + (0,)
    if etype in ("a", "b"):
        conj = {s: s, t: t}
    elif etype in ("c", "d"):
        conj = {s: ((1 << (d - 1)) - 1, 0, 0)}     # s^-1
    else:  # "e": build_extension admits no other type
        conj = {s: ext.mul(s1, s), t: t}
    e2 = s1 if etype in ("b", "d") else (0, 0, 0)
    ok = ext.mul(e, e) == e2 and all(ext.mul(g, e) == ext.mul(e, h) for g, h in conj.items())
    if etype in ("c", "d"):
        order, invol, exponent = ext.fingerprint()[:3]
        if etype == "c":
            ok = ok and exponent == order // 2 and invol == order // 2 + 2
        else:
            ok = ok and invol == order // 4 + 2
    if not ok:
        raise InvariantViolation(f"type ({etype}) relations fail for d={d}")


# ---------------------------------------------------------------------------
# census and classification
# ---------------------------------------------------------------------------

def _orbit(points, moves) -> set:
    """The orbit of the set `points` under the maps in `moves`."""
    seen, todo = set(points), list(points)
    for x in todo:
        for move in moves:
            if (y := move(x)) not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _conjugations(rows, gens, ident) -> list:
    """The maps x -> g^-1·x·g = rows[g][rows[x][g^-1]], one per generator g."""
    return [lambda x, rg=rows[g], g_inv=rows[g].index(ident): rg[rows[x][g_inv]] for g in gens]


def regular_fingerprint(rows, gens, ident, D=None) -> tuple:
    """(|G|, #{g^2 = 1}, exponent, |Z|, |G'|) of G = <gens> on its regular
    rows: rows[h][g] is the element g·h, and `ident` is the identity.  The
    left rows x -> h·x give the opposite group, which has the same
    invariants.  G' is the normal closure of the generators' commutators,
    the orbit of the identity under right multiplication by them and
    conjugation by the generators.  With D = (members, generators) of a
    subgroup, a last entry flags an involution in G - D centralizing D."""
    n, square = len(rows), [row[g] for g, row in enumerate(rows)]  # g·g

    def order(g):
        x, k = g, 1
        while x != ident:
            x, k = rows[g][x], k + 1
        return k

    def centralizes(g, hs):
        return all(rows[h][g] == rows[g][h] for h in hs)

    conj = _conjugations(rows, gens, ident)
    comms = {rows[by_h(g)][rows[g].index(ident)] for g in gens for by_h in conj}  # g^-1·g^h
    derived = _orbit([ident], conj + [rows[c].__getitem__ for c in comms])
    fp = (n, square.count(ident), lcm(*map(order, range(n))),
          sum(1 for g in range(n) if centralizes(g, gens)), len(derived))
    if D is None:
        return fp
    members, D_gens = D
    return fp + (any(g not in members and square[g] == ident and centralizes(g, D_gens)
                     for g in range(n)),)


def group_fingerprint(G: PermGroup, D: PermGroup | None = None) -> tuple:
    """`regular_fingerprint` of a concrete G, read off its left rows, and of D <= G."""
    rel = None if D is None else ({G.idx(p) for p in D.elements}, list(map(G.idx, D.generators)))
    return regular_fingerprint([G.left(h) for h in range(G.order)],
                               list(map(G.idx, G.generators)), G.identity_idx(), rel)


@lru_cache(maxsize=None)
def _reference_fingerprints(d: int) -> dict:
    frame = build_dihedral(d)
    out = {}
    for etype in _available_types(d):
        out[etype] = build_extension(frame, etype).fingerprint()
    return out


def census_degree2_extensions(frame: DihedralFrame) -> list:
    """All degree-2 extensions up to isomorphism: [(etype, fingerprint)].

    Enumerates the four involutive outer-automorphism representatives
    paired with every consistent square e^2, builds each crossed product,
    and deduplicates by abstract fingerprint.  For d >= 4 the candidate
    alpha = (2^(d-2)-1, 1) admits no consistent square and drops out.
    """
    d = frame.d
    if d > 7:
        raise BadDegree("census capped at d <= 7")
    m = 1 << (d - 1)
    half = 1 << (d - 2)
    reps = [(1, 0), (-1 % m, 1), ((half + 1) % m, 0), ((half - 1) % m, 1)]
    ref = _reference_fingerprints(d)
    seen = {}
    for alpha in reps:
        for u in _consistent_squares(frame, alpha):
            fp = ExtensionFrame(frame, alpha, u, None).fingerprint()
            matches = [ty for ty, rfp in ref.items() if rfp == fp]
            if len(matches) != 1:
                raise Unclassifiable(f"census fingerprint collision: {fp}")
            seen.setdefault(matches[0], fp)
    return sorted(seen.items())


def _available_types(d: int) -> tuple:
    return ("a", "b", "c", "d") if d == 3 else EXT_TYPES


def is_dihedral_2group(P: PermGroup) -> bool:
    n = P.order
    if n < 8 or n & (n - 1):
        return False
    return P.exponent() == n // 2 and len(P.involution_indices()) == n // 2 + 2


def classify_extension(D: PermGroup, E: PermGroup) -> str:
    """Type tag of the pair D <= E; 'principal' when E = D."""
    if not is_dihedral_2group(D):
        raise NotDihedral(f"|D| = {D.order} is not dihedral of order >= 8")
    if not D.is_subgroup_of(E):
        raise BadIndex("D is not contained in E")
    if E.order == D.order:
        return "principal"
    if E.order != 2 * D.order:
        raise BadIndex(f"[E:D] = {E.order / D.order} not in (1, 2)")
    d = nu(D.order)
    ref = _reference_fingerprints(d)
    fp = group_fingerprint(E, D)
    matches = [ty for ty, rfp in ref.items() if rfp == fp]
    if len(matches) != 1:
        raise Unclassifiable(f"fingerprint {fp} matched {matches}")
    return matches[0]


# ---------------------------------------------------------------------------
# coset-class table: E-classes in E - D
# ---------------------------------------------------------------------------

def expected_table1_rows(d: int, etype: str) -> list:
    """Reference rows of the coset-class table of E - D, as
    (label, rep_spec, is_involution, centralizer_name); rep_spec is
    (s_exponent, t_flag) for the element s^k t^eps e."""
    q = 1 << (d - 2)
    if etype in ("a", "b"):
        rows = [("e", (0, 0), etype == "a", "D"),
                ("s1*e", (q, 0), etype == "a", "D")]
        for i in range(1, q):
            inv = etype == "b" and i == q // 2
            rows.append((f"s^{i}*e", (i, 0), inv, "S"))
        rows.append(("t*e", (0, 1), etype == "a", "X_2"))
        rows.append(("s*t*e", (1, 1), etype == "a", "Y_2"))
        return rows
    if etype in ("c", "d"):
        rows = [(f"s^{i}*t*e", (i, 1), False, "S") for i in range(q)]
        rows.append(("e", (0, 0), etype == "c", "S_1"))
        return rows
    if etype == "e":
        rows = [("e", (0, 0), True, f"X_{d-1}"),
                ("s2*e", (q // 2, 0), False, f"Y_{d-1}")]
        for i in range(1, q // 2):
            rows.append((f"s^{i}*e", (i, 0), False, f"S_{d-2}"))
        rows.append(("t*e", (0, 1), True, "X_2"))
        rows.append(("s*s2*t*e", (1 + q // 2, 1), False, "Y_2"))
        return rows
    raise ValueError(f"unknown extension type {etype!r}")


def eclass_table(ext: ExtensionFrame) -> list:
    """Computed E-classes of E - D with involution flags and C_D names.

    Returns [(label, is_involution, centralizer_name, class_size)] in the
    reference row order; raises if the expected representatives
    fail to partition E - D into distinct classes.
    """
    named = {name: ext.named_subgroup(name) for name in ext.named_subgroup_names()}
    rows, half = ext.rows, len(ext.rows) // 2
    out = []
    covered = set()
    for label, (k, teps), _inv_expected, _cname in expected_table1_rows(ext.frame.d, ext.etype):
        h = (k, teps, 1)
        x = ext._index[h]
        cls = ext.conjugacy_class(x)
        if covered & cls:
            raise Unclassifiable(f"row {label}: representative already covered")
        covered |= cls
        cd = ext.centralizer_in_D(h)
        cname = next((n for n, elems in named.items() if elems == cd), None)
        if cname is None:
            raise Unclassifiable(f"row {label}: C_D(x) is not a named subgroup")
        out.append((label, rows[x][x] == 0, cname, len(cls)))
    if covered != set(range(half, len(rows))):
        raise Unclassifiable("expected representatives do not cover E - D")
    return out


# ---------------------------------------------------------------------------
# reality of subpairs at the 2-group level
# ---------------------------------------------------------------------------

def subpair_reality(ext: ExtensionFrame, Q) -> tuple:
    """(real?, strongly real?) of the subpair at Q, a subgroup name or a
    list of normal forms (k, eps).

    Real: E = D * C_E(Q) as sets (the subpair-reality criterion).  Strongly
    real: some involution t in C_E(Q) has E = D<t>, i.e. lies outside D.
    C_E(Q) is the set of points commuting with each generator of a named Q,
    or with each element of a listed one.
    """
    ys = ext.named_generators(Q) if isinstance(Q, str) else Q
    rows, half = ext.rows, len(ext.rows) // 2
    C = ext.centralizer([y + (0,) for y in ys])
    real = ext.frame.order * len(C) // sum(1 for x in C if x < half) == len(rows)
    strong = any(x >= half and rows[x][x] == 0 for x in C)
    return real, strong


def reality_pattern(ext: ExtensionFrame) -> dict:
    """(real?, strongly real?) for every named subgroup class of D."""
    return {name: subpair_reality(ext, name) for name in ext.named_subgroup_names()}


def expected_reality(d: int, etype: str) -> dict:
    """Reference (real, strongly real) classification, keyed by named subgroup."""
    out = {}
    for name in _subgroup_names(d):
        if etype == "principal":
            out[name] = (True, True)
            continue
        is_s = name == "1" or name.startswith("S")
        is_x = name.startswith("X")
        if name == "1":
            real = True
            strong = etype != "d"
        elif name == "D":
            real = etype in ("a", "b")
            strong = etype == "a"
        elif name == "S" and etype == "e":
            real, strong = False, False
        elif etype in ("a", "b"):
            real = True
            strong = etype == "a" or is_s
        elif etype in ("c", "d"):
            real = is_s
            strong = etype == "c" and name == "S_1"
        else:  # type (e), proper named Q != S
            real = True
            strong = is_s or is_x
        out[name] = (real, strong)
    return out


# ---------------------------------------------------------------------------
# column census (subsection fusion + reality per extension type)
# ---------------------------------------------------------------------------

FUSION_CASES = ("aa", "ab", "ba", "bb")


def count_real_columns(d: int, etype: str, fusion_case: str) -> dict:
    """2-local census of the block's columns and which are real.

    Columns at x = 1 are counted real here (their reality is Brauer-
    character data, invisible to the 2-group); subsection columns follow
    the reality classification: the s-family is nonreal exactly in type (e), and
    unfused t/st columns are nonreal exactly in types (c)/(d).
    """
    if d < 3:
        raise BadDegree("d >= 3 required")
    if fusion_case not in FUSION_CASES:
        raise ValueError(f"fusion case {fusion_case!r}")
    l_b = {"aa": 3, "ab": 2, "ba": 2, "bb": 1}[fusion_case]
    unfused = {"aa": [], "ab": ["st"], "ba": ["t"], "bb": ["t", "st"]}[fusion_case]
    cols = [("1", theta, True) for theta in range(l_b)]
    cols.append(("s_1", 0, True))
    for i in range(2, d):
        fam = 1 << (i - 2)
        real = not (etype == "e" and i == d - 1)
        cols += [(f"s_{i}", r, real) for r in range(fam)]
    for x in unfused:
        cols.append((x, 0, etype in ("a", "b", "e", "principal")))
    total = len(cols)
    if total != (1 << (d - 2)) + 3:
        raise InvariantViolation(f"{total} columns, expected 2^(d-2) + 3")
    real_count = sum(1 for _x, _t, r in cols if r)
    return {"d": d, "etype": etype, "fusion": fusion_case,
            "total": total, "real": real_count,
            "nonreal": total - real_count, "columns": cols}
