"""Dihedral 2-groups, their degree-2 extensions, and subpair reality.

A DihedralFrame fixes the presentation D = <s, t | s^(2^(d-1)), t^2, (st)^2>
with the named elements s_i = s^(2^(d-1-i)) and subgroups S_i = <s_i>,
X_i = <s_(i-1), t>, Y_i = <s_(i-1), st>.  Extensions E = D<e> are realized
as crossed products D x {1, e} turned into permutation groups via the
right-regular action, so all five isomorphism types (a)-(e) are concrete
groups with distinguished coset representative e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BadDegree, BadIndex, InvariantViolation, NotDihedral,
                     TypeUnavailable, Unclassifiable)
from .perm import PermGroup, identity, inverse, mul, nu, perm_order

EXT_TYPES = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class DihedralFrame:
    d: int
    group: PermGroup
    s: tuple
    t: tuple
    words: dict            # element -> (k, eps) with element = s^k t^eps

    @property
    def order(self) -> int:
        return 1 << self.d

    def s_power(self, k: int) -> tuple:
        m = 1 << (self.d - 1)
        out = identity(self.group.degree)
        base = self.s
        k %= m
        for _ in range(k):
            out = mul(out, base)
        return out

    def s_i(self, i: int) -> tuple:
        """s_i = s^(2^(d-1-i)), an element of order 2^i."""
        if not 1 <= i <= self.d - 1:
            raise ValueError("s_i needs 1 <= i <= d-1")
        return self.s_power(1 << (self.d - 1 - i))


def build_dihedral(d: int, cap: int | None = None) -> DihedralFrame:
    """D_{2^d} acting naturally on 2^(d-1) points."""
    if d < 3:
        raise BadDegree("dihedral frame needs d >= 3")
    m = 1 << (d - 1)
    s = tuple((x + 1) % m for x in range(m))
    t = tuple((-x) % m for x in range(m))
    G = PermGroup([s, t], cap=cap)
    if G.order != 2 * m:
        raise InvariantViolation(f"<s, t> has order {G.order}, not {2 * m}")
    words = {}
    cur = identity(m)
    for k in range(m):
        words[cur] = (k, 0)
        words[mul(cur, t)] = (k, 1)
        cur = mul(cur, s)
    frame = DihedralFrame(d=d, group=G, s=s, t=t, words=words)
    # presentation invariants
    st = mul(s, t)
    z = frame.s_i(1)
    if (perm_order(s) != m or mul(t, t) != identity(m)
            or mul(st, st) != identity(m)
            or any(mul(z, g) != mul(g, z) for g in (s, t))):
        raise InvariantViolation(f"D_{2 * m} presentation fails")
    return frame


# ---------------------------------------------------------------------------
# crossed products D<e>
# ---------------------------------------------------------------------------

def _automorphism(frame: DihedralFrame, a: int, b: int) -> dict:
    """The map s -> s^a, t -> s^(-b) t, as an element dictionary."""
    m = 1 << (frame.d - 1)
    img_s = frame.s_power(a % m)
    img_t = mul(frame.s_power((-b) % m), frame.t)
    out = {}
    for elem, (k, eps) in frame.words.items():
        img = identity(frame.group.degree)
        for _ in range(k):
            img = mul(img, img_s)
        if eps:
            img = mul(img, img_t)
        out[elem] = img
    if sorted(out.values()) != sorted(frame.words):
        raise InvariantViolation("automorphism of D is not bijective")
    return out


def _compose(alpha: dict, beta: dict) -> dict:
    return {x: beta[alpha[x]] for x in alpha}


def _consistent_squares(frame: DihedralFrame, alpha: dict) -> list:
    """All u in D with alpha^2 = conj_u and alpha(u) = u."""
    alpha2 = _compose(alpha, alpha)
    out = []
    for u in frame.group.elements:
        ui = inverse(u)
        if alpha[u] != u:
            continue
        if all(alpha2[x] == mul(mul(ui, x), u) for x in frame.group.generators):
            # generator check suffices: both sides are automorphisms
            out.append(u)
    return out


class ExtensionFrame:
    """E = D<e> as a regular permutation group with distinguished elements.

    Elements of E are pairs (x, i) ~ x e^i with (x,i)(y,j) =
    (x alpha^i(y) u^(i and j), i+j); the regular action turns each pair
    into a permutation of the 2^(d+1) pairs.
    """

    def __init__(self, frame: DihedralFrame, alpha: dict, u: tuple, etype: str | None):
        self.frame = frame
        self.etype = etype
        d = frame.d
        delems = frame.group.elements
        pairs = [(x, i) for i in (0, 1) for x in delems]
        index = {pr: n for n, pr in enumerate(pairs)}

        def pmul(p, q):
            (x, i), (y, j) = p, q
            ya = alpha[y] if i else y
            prod = mul(x, ya)
            if i and j:
                prod = mul(prod, u)
            return (prod, (i + j) % 2)

        def regular(h):
            return tuple(index[pmul(pr, h)] for pr in pairs)

        self._pairs = pairs
        self._regular = regular
        gens = [regular((g, 0)) for g in frame.group.generators] + [regular((identity(frame.group.degree), 1))]
        self.E = PermGroup(gens, degree=len(pairs))
        if self.E.order != 2 * frame.group.order:
            raise InvariantViolation("the crossed product D<e> is not of order 2|D|")
        ident = identity(frame.group.degree)
        self.e = regular((ident, 1))
        self.s = regular((frame.s, 0))
        self.t = regular((frame.t, 0))
        self._embed = {x: regular((x, 0)) for x in delems}
        self.D_set = frozenset(self._embed.values())

    # -- named elements/subgroups inside E --------------------------------

    def embed(self, x: tuple) -> tuple:
        return self._embed[x]

    def s_power(self, k: int) -> tuple:
        return self.embed(self.frame.s_power(k))

    def s_i(self, i: int) -> tuple:
        return self.embed(self.frame.s_i(i))

    def named_subgroup_gens(self, name: str) -> list:
        """Generators of one of 1, S_i, S, X_i, Y_i, D inside E."""
        if name == "1":
            return []
        if name == "D":
            return [self.s, self.t]
        if name == "S":
            return [self.s]
        if name.startswith("S_"):
            return [self.s_i(int(name[2:]))]
        if name.startswith("X_"):
            i = int(name[2:])
            t = self.embed(self.frame.t)
            return [t] if i == 1 else [self.s_i(i - 1), t]
        if name.startswith("Y_"):
            i = int(name[2:])
            st = self.embed(mul(self.frame.s, self.frame.t))
            return [st] if i == 1 else [self.s_i(i - 1), st]
        raise ValueError(f"unknown subgroup name {name!r}")

    def named_subgroup(self, name: str) -> frozenset:
        """Element set of one of 1, S_i, S, X_i, Y_i, D inside E."""
        if name == "D":
            return self.D_set
        gens = self.named_subgroup_gens(name)
        if not gens:
            return frozenset([identity(self.E.degree)])
        return self.E.subgroup(gens).element_set()

    def named_subgroup_names(self) -> list:
        d = self.frame.d
        names = ["1"]
        names += [f"S_{i}" for i in range(1, d - 1)] + ["S"]
        names += [f"X_{i}" for i in range(1, d)]
        names += [f"Y_{i}" for i in range(1, d)]
        names.append("D")
        return names

    def centralizer_in_D(self, x: tuple) -> frozenset:
        return frozenset(g for g in self.D_set if mul(g, x) == mul(x, g))


def build_extension(frame: DihedralFrame, etype: str) -> ExtensionFrame:
    """One concrete extension of each isomorphism type (a)-(e)."""
    d = frame.d
    m = 1 << (d - 1)
    ident = identity(frame.group.degree)
    if etype in ("a", "b"):
        alpha = {x: x for x in frame.group.elements}
        u = ident if etype == "a" else frame.s_i(1)
    elif etype in ("c", "d"):
        alpha = _automorphism(frame, -1, 1)
        u = ident if etype == "c" else frame.s_i(1)
    elif etype == "e":
        if d < 4:
            raise TypeUnavailable("type (e) needs d >= 4")
        alpha = _automorphism(frame, (1 << (d - 2)) + 1, 0)
        u = ident
    else:
        raise ValueError(f"unknown extension type {etype!r}")
    sq = _consistent_squares(frame, alpha)
    if u not in sq:
        raise InvariantViolation(f"e^2 = u is not consistent for type ({etype})")
    ext = ExtensionFrame(frame, alpha, u, etype)
    _check_type_relations(ext, etype)
    return ext


def _check_type_relations(ext: ExtensionFrame, etype: str):
    d = ext.frame.d
    e, s, t = ext.e, ext.s, ext.t
    ident = identity(ext.E.degree)
    s1 = ext.s_i(1)
    e2 = mul(e, e)
    if etype == "a":
        ok = e2 == ident and all(mul(e, g) == mul(g, e) for g in (s, t))
    elif etype == "b":
        ok = e2 == s1 and all(mul(e, g) == mul(g, e) for g in (s, t))
    elif etype in ("c", "d"):
        conj_s = mul(mul(inverse(e), s), e)
        ok = conj_s == inverse(s) and e2 == (ident if etype == "c" else s1)
        order = ext.E.order
        invol = len(ext.E.involution_indices())
        if etype == "c":
            ok = ok and ext.E.exponent() == order // 2 and invol == order // 2 + 2
        else:
            ok = ok and invol == order // 4 + 2
    else:  # "e": build_extension admits no other type
        ok = (e2 == ident and mul(mul(inverse(e), s), e) == mul(s1, s)
              and mul(mul(inverse(e), t), e) == t)
    if not ok:
        raise InvariantViolation(f"type ({etype}) relations fail for d={d}")


# ---------------------------------------------------------------------------
# census and classification
# ---------------------------------------------------------------------------

def _abstract_fingerprint(G: PermGroup) -> tuple:
    return (G.order, len(G.involution_indices()), G.exponent(),
            G.center_order(), G.derived_subgroup().order)


def _relative_fingerprint(E: PermGroup, D_set, D_gens) -> tuple:
    """Abstract fingerprint of E plus: does some involution in E - D centralize D?"""
    ident = identity(E.degree)
    central = any(x not in D_set and mul(x, x) == ident
                  for x in E.centralizer(*D_gens).elements)
    return _abstract_fingerprint(E) + (central,)


from functools import lru_cache


@lru_cache(maxsize=None)
def _reference_fingerprints(d: int) -> dict:
    frame = build_dihedral(d)
    out = {}
    for etype in _available_types(d):
        ext = build_extension(frame, etype)
        out[etype] = _relative_fingerprint(ext.E, ext.D_set, [ext.s, ext.t])
    return out


def census_degree2_extensions(frame: DihedralFrame) -> list:
    """All degree-2 extensions up to isomorphism: [(etype, fingerprint)].

    Enumerates the four involutive outer-automorphism representatives
    paired with every consistent square e^2, builds each crossed product,
    and deduplicates by abstract fingerprint.  The candidate
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
    for a, b in reps:
        alpha = _automorphism(frame, a, b)
        for u in _consistent_squares(frame, alpha):
            ext = ExtensionFrame(frame, alpha, u, None)
            fp = _relative_fingerprint(ext.E, ext.D_set, [ext.s, ext.t])
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
    fp = _relative_fingerprint(E, D.element_set(), D.generators)
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
    d = ext.frame.d
    E = ext.E
    ident = identity(E.degree)
    classes = E.conjugacy_classes()
    outside = {i for i, p in enumerate(E.elements) if p not in ext.D_set}
    named = {name: ext.named_subgroup(name) for name in ext.named_subgroup_names()}
    rows = []
    covered = set()
    for label, (k, teps), _inv_expected, _cname in expected_table1_rows(d, ext.etype):
        x = ext.s_power(k)
        if teps:
            x = mul(x, ext.embed(ext.frame.t))
        x = mul(x, ext.e)
        if x in ext.D_set:
            raise InvariantViolation(f"row {label}: representative lies in D")
        cls = set(classes[E.class_of(E.idx(x))].members)
        if covered & cls:
            raise Unclassifiable(f"row {label}: representative already covered")
        covered |= cls
        is_inv = mul(x, x) == ident
        cd = ext.centralizer_in_D(x)
        cname = next((n for n, elems in named.items() if elems == cd), None)
        if cname is None:
            raise Unclassifiable(f"row {label}: C_D(x) is not a named subgroup")
        rows.append((label, is_inv, cname, len(cls)))
    if covered != outside:
        raise Unclassifiable("expected representatives do not cover E - D")
    return rows


# ---------------------------------------------------------------------------
# reality of subpairs at the 2-group level
# ---------------------------------------------------------------------------

def subpair_reality(ext: ExtensionFrame, Q) -> tuple:
    """(real?, strongly real?) of the subpair at Q, a subgroup name or generators.

    Real: E = D * C_E(Q) as sets (the subpair-reality criterion).  Strongly
    real: some involution t in C_E(Q) has E = D<t> (t may be 1 when E = D).
    """
    gens = ext.named_subgroup_gens(Q) if isinstance(Q, str) else Q
    C = ext.E.centralizer(*gens)
    inter = sum(1 for x in C.elements if x in ext.D_set)
    real = len(ext.D_set) * C.order // inter == ext.E.order
    ident = identity(ext.E.degree)
    index2 = ext.E.order == 2 * len(ext.D_set)
    strong = any(mul(x, x) == ident and not (index2 and x in ext.D_set)
                 for x in C.elements)
    return real, strong


def reality_pattern(ext: ExtensionFrame) -> dict:
    """(real?, strongly real?) for every named subgroup class of D."""
    return {name: subpair_reality(ext, name) for name in ext.named_subgroup_names()}


def expected_reality(d: int, etype: str) -> dict:
    """Reference (real, strongly real) classification, keyed by named subgroup."""
    names = ["1"] + [f"S_{i}" for i in range(1, d - 1)] + ["S"] \
        + [f"X_{i}" for i in range(1, d)] + [f"Y_{i}" for i in range(1, d)] + ["D"]
    out = {}
    for name in names:
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
