"""Finite-group engine over explicit permutation generators.

Permutations are tuples of 0-based images acting on the right:
(i)(pq) = ((i)p)q, i.e. mul(p, q)[i] = q[p[i]].  Groups materialize their
full element list (sorted, so element indices are deterministic) and all
later layers work with element indices.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from math import gcd

from .errors import BadIndex, CapExceeded, InvariantViolation, NotMember

DEFAULT_ORDER_CAP = 10080


def order_cap() -> int:
    """Group-order cap; WORKBENCH_CAP_ORDER overrides the default."""
    env = os.environ.get("WORKBENCH_CAP_ORDER")
    return int(env) if env else DEFAULT_ORDER_CAP


Perm = tuple  # tuple of 0-based images


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def mul(p: Perm, q: Perm) -> Perm:
    """Compose left-to-right: apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conj(p: Perm, g: Perm) -> Perm:
    """p^g = g^-1 p g."""
    return mul(mul(inverse(g), p), g)


def perm_order(p: Perm) -> int:
    n = 1
    q = p
    ident = identity(len(p))
    while q != ident:
        q = mul(q, p)
        n += 1
    return n


def is_perm(images) -> bool:
    return sorted(images) == list(range(len(images)))


def nu(n: int) -> int:
    """2-adic valuation: largest k with 2^k | n."""
    if n < 1:
        raise ValueError("nu needs n >= 1")
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(line: str, degree: int | None = None) -> Perm:
    """Parse 1-based disjoint-cycle notation, e.g. '(1 2 3 4)(5 6)'.

    Points may be separated by spaces or commas.  'id' or '()' gives the
    identity (degree must then be supplied or defaults to 1).
    """
    line = line.strip()
    cycles = []
    maxpt = degree or 1
    if line not in ("", "id", "()"):
        consumed = "".join(_CYCLE_RE.findall(line))
        stripped = re.sub(r"[\s,]", "", consumed)
        if re.sub(r"[\s,()]", "", line) != stripped:
            raise ValueError(f"bad cycle notation: {line!r}")
        for body in _CYCLE_RE.findall(line):
            pts = [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
            if any(p < 1 for p in pts):
                raise ValueError("cycle notation is 1-based")
            cycles.append(pts)
            maxpt = max(maxpt, *pts) if pts else maxpt
    n = max(maxpt, degree or 1)
    images = list(range(n))
    for pts in cycles:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
    if not is_perm(images):
        raise ValueError(f"cycles are not disjoint: {line!r}")
    return tuple(images)


def cycle_notation(p: Perm) -> str:
    """Render a permutation in 1-based disjoint-cycle notation."""
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) or "()"


def read_generator_file(path: str) -> list[Perm]:
    """One permutation per line; blank lines and '#' comments are skipped."""
    gens = []
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    degree = 1
    parsed = [parse_cycles(ln) for ln in lines]
    for p in parsed:
        degree = max(degree, len(p))
    gens = [pad(p, degree) for p in parsed]
    return gens


def pad(p: Perm, degree: int) -> Perm:
    if len(p) > degree:
        raise ValueError("cannot shrink a permutation")
    return tuple(list(p) + list(range(len(p), degree)))


@dataclass(frozen=True)
class ConjClass:
    rep: int                      # element index of the representative
    members: tuple                # sorted element indices
    order: int                    # element order of the representative
    is_real: bool                 # rep^-1 lies in members
    is_2regular: bool             # rep has odd order

    def size(self) -> int:
        return len(self.members)


class PermGroup:
    """A permutation group with a materialized, sorted element table.

    Immutable after construction; every later layer addresses elements
    by their index into `elements`.
    """

    def __init__(self, generators, degree: int | None = None, cap: int | None = None):
        gens = [tuple(g) for g in generators]
        if degree is None:
            degree = max((len(g) for g in gens), default=1)
        gens = [pad(g, degree) for g in gens]
        for g in gens:
            if not is_perm(g):
                raise ValueError(f"not a permutation: {g}")
        self.degree = degree
        self.generators = gens
        self._cap = cap if cap is not None else order_cap()
        self._adopt(self._close())

    def _adopt(self, elements: list):
        """Install a sorted element list as the table; reset the class memo."""
        self.elements = elements
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.order = len(self.elements)
        self._classes = None
        self._class_of = None

    def _close(self) -> list:
        ident = identity(self.degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = mul(p, g)
                    if q not in seen:
                        if len(seen) >= self._cap:
                            raise CapExceeded(
                                f"group order exceeds cap {self._cap}")
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return sorted(seen)

    # -- element helpers ------------------------------------------------

    def idx(self, p: Perm) -> int:
        try:
            return self.index[tuple(p)]
        except KeyError:
            raise NotMember(f"{p} not in group") from None

    def __contains__(self, p) -> bool:
        return tuple(p) in self.index

    def identity_idx(self) -> int:
        return self.index[identity(self.degree)]

    def inv_idx(self, i: int) -> int:
        return self.index[inverse(self.elements[i])]

    def order_of(self, i: int) -> int:
        return perm_order(self.elements[i])

    # -- conjugacy classes ----------------------------------------------

    def conjugacy_classes(self) -> list:
        """Partition of elements into conjugacy classes.

        Classes are ordered by (element order, class size, min element
        index); the representative is the minimal element index.
        """
        if self._classes is not None:
            return self._classes
        seen = [False] * self.order
        raw = []
        geninv = [(g, inverse(g)) for g in self.generators]
        for i in range(self.order):
            if seen[i]:
                continue
            orbit = {i}
            frontier = [self.elements[i]]
            seen[i] = True
            while frontier:
                nxt = []
                for p in frontier:
                    for g, gi in geninv:
                        q = mul(mul(gi, p), g)
                        qi = self.index[q]
                        if qi not in orbit:
                            orbit.add(qi)
                            seen[qi] = True
                            nxt.append(q)
                frontier = nxt
            raw.append(tuple(sorted(orbit)))
        classes = []
        for members in raw:
            rep = members[0]
            o = self.order_of(rep)
            inv_rep = self.inv_idx(rep)
            classes.append(ConjClass(
                rep=rep, members=members, order=o,
                is_real=inv_rep in members,
                is_2regular=o % 2 == 1,
            ))
        classes.sort(key=lambda c: (c.order, c.size(), c.rep))
        self._classes = classes
        self._class_of = [0] * self.order
        for ci, c in enumerate(classes):
            for m in c.members:
                self._class_of[m] = ci
        return classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    # -- subgroups -------------------------------------------------------

    def subgroup(self, gen_perms) -> "PermGroup":
        return PermGroup(list(gen_perms), degree=self.degree, cap=self._cap)

    def centralizer(self, *members: Perm) -> "PermGroup":
        """The elements that commute with every one of `members`."""
        elems = self.elements
        for p in members:
            p = tuple(p)
            if p not in self.index:
                raise NotMember(f"{p} not in group")
            elems = [x for x in elems if mul(x, p) == mul(p, x)]
        return self._from_elements(elems)

    def extended_centralizer(self, p: Perm) -> "PermGroup":
        """C*(g) = N({g, g^-1}), the stabilizer of the pair {g, g^-1}."""
        p = tuple(p)
        if p not in self.index:
            raise NotMember(f"{p} not in group")
        pi = inverse(p)
        targets = {p, pi}
        elems = [x for x in self.elements if conj(p, x) in targets]
        return self._from_elements(elems)

    def normalizer_of_set(self, subset) -> "PermGroup":
        sset = set(subset)
        elems = []
        for x in self.elements:
            xi = inverse(x)
            if all(mul(mul(xi, s), x) in sset for s in sset):
                elems.append(x)
        return self._from_elements(elems)

    def _from_elements(self, elems) -> "PermGroup":
        g = PermGroup.__new__(PermGroup)
        g.degree = self.degree
        g.generators = list(elems)
        g._cap = self._cap
        g._adopt(sorted(elems))
        return g

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def intersection(self, other: "PermGroup") -> "PermGroup":
        if other.degree != self.degree:
            raise BadIndex("degree mismatch")
        elems = [p for p in self.elements if p in other.index]
        return self._from_elements(elems)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(p in other.index for p in self.elements)

    # -- 2-local structure -------------------------------------------------

    def sylow2(self) -> "PermGroup":
        """A Sylow 2-subgroup, grown by greedy normalizer ascent.

        Starts from the cyclic group on the first 2-element and repeatedly
        adjoins a 2-element of the normalizer.  Correctness is checked by
        order only; there is no canonical choice of Sylow subgroup.
        """
        target = 2 ** nu(self.order)
        if target == 1:
            return self._from_elements([identity(self.degree)])
        start = None
        for p in self.elements:
            o = perm_order(p)
            if o > 1 and o & (o - 1) == 0:
                start = p
                break
        current = self.subgroup([start])
        while current.order < target:
            norm = self.normalizer_of_set(current.element_set())
            grown = None
            for y in norm.elements:
                if y in current.index:
                    continue
                o = perm_order(y)
                if o & (o - 1) == 0:
                    cand = self.subgroup(list(current.generators) + [y])
                    if cand.order & (cand.order - 1) == 0:
                        grown = cand
                        break
            if grown is None:  # unreachable for finite groups
                raise InvariantViolation("normalizer ascent stalled")
            current = grown
        if current.order != target:
            raise InvariantViolation("Sylow 2-subgroup search ended below the 2-part of |G|")
        return current

    def involution_indices(self) -> list:
        """Indices of elements with g^2 = 1, identity included."""
        return [i for i, p in enumerate(self.elements) if mul(p, p) == identity(self.degree)]

    def o2_core(self) -> "PermGroup":
        """O_2(G): the intersection of all conjugates of a Sylow 2-subgroup."""
        syl = self.sylow2()
        core = syl.element_set()
        for g in self.elements:
            gi = inverse(g)
            core = core & frozenset(mul(mul(gi, s), g) for s in syl.elements)
            if len(core) == 1:
                break
        return self._from_elements(sorted(core))

    def exponent(self) -> int:
        e = 1
        for c in self.conjugacy_classes():
            e = e * c.order // gcd(e, c.order)
        return e

    def center_order(self) -> int:
        return sum(1 for c in self.conjugacy_classes() if c.size() == 1)

    def derived_subgroup(self) -> "PermGroup":
        comms = set()
        for g in self.generators:
            for h in self.generators:
                comms.add(mul(mul(inverse(g), inverse(h)), mul(g, h)))
        # close under conjugation to get the normal closure
        sub = self.subgroup(sorted(comms))
        while True:
            extra = set()
            for g in self.generators:
                gi = inverse(g)
                for s in sub.generators:
                    c = mul(mul(gi, s), g)
                    if c not in sub.index:
                        extra.add(c)
            if not extra:
                return sub
            sub = self.subgroup(list(sub.elements) + sorted(extra))


def generate(gens, degree: int | None = None, cap: int | None = None) -> PermGroup:
    """Public constructor used by the CLI and the group catalog."""
    return PermGroup(gens, degree=degree, cap=cap)
