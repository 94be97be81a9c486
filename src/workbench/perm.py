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
from functools import cached_property
from math import lcm

from .errors import CapExceeded, InvariantViolation, NotMember

DEFAULT_ORDER_CAP = 10080


def order_cap() -> int:
    """Group-order cap; WORKBENCH_CAP_ORDER overrides the default."""
    env = os.environ.get("WORKBENCH_CAP_ORDER")
    return int(env) if env else DEFAULT_ORDER_CAP


def check_cap(order: int, cap: int | None):
    """Refuse a group of a known order above `cap` before building it."""
    cap = cap if cap is not None else order_cap()
    if order > cap:
        raise CapExceeded(f"group order {order} exceeds cap {cap}")


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
    """The lcm of the cycle lengths of p."""
    n = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length:
            n = lcm(n, length)
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
        self.cap = cap if cap is not None else order_cap()
        self._adopt(self._close())

    def _adopt(self, elements: list):
        """Install a sorted element list as the table; reset the class memo."""
        self.elements = elements
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.order = len(self.elements)
        self._classes = None

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
                        if len(seen) >= self.cap:
                            raise CapExceeded(
                                f"group order exceeds cap {self.cap}")
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
            o = perm_order(self.elements[rep])
            inv_rep = self.inv_idx(rep)
            classes.append(ConjClass(
                rep=rep, members=members, order=o,
                is_real=inv_rep in members,
                is_2regular=o % 2 == 1,
            ))
        classes.sort(key=lambda c: (c.order, c.size(), c.rep))
        self._classes = classes
        return classes

    @cached_property
    def class_of(self) -> list:
        """class_of[i] is the position in `conjugacy_classes()` of element i's class."""
        out = [0] * self.order
        for ci, c in enumerate(self.conjugacy_classes()):
            for m in c.members:
                out[m] = ci
        return out

    # -- subgroups -------------------------------------------------------

    def subgroup(self, gen_perms) -> "PermGroup":
        return PermGroup(list(gen_perms), degree=self.degree, cap=self.cap)

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

    def _from_elements(self, elems) -> "PermGroup":
        g = PermGroup.__new__(PermGroup)
        g.degree = self.degree
        g.generators = list(elems)
        g.cap = self.cap
        g._adopt(sorted(elems))
        return g

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(p in other.index for p in self.elements)

    # -- 2-local structure -------------------------------------------------

    def sylow2(self, start: "PermGroup | None" = None) -> "PermGroup":
        """A Sylow 2-subgroup containing the 2-subgroup `start` (default 1).

        Grows P one generator at a time: each step adjoins the first
        2-element y outside P, in element order, with g^y in P for every
        generator g of P.  Such a y normalizes P, so P<y> is a 2-group; and
        a y exists while P is not Sylow, since P is then proper in N_S(P)
        for a Sylow S containing P.  There is no canonical choice.
        """
        target = 1 << nu(self.order)
        current = start if start is not None else self.subgroup([])
        twos = [y for y in self.elements if (o := perm_order(y)) & (o - 1) == 0]
        while current.order < target:
            grown = next((y for y in twos if y not in current.index and all(
                conj(g, y) in current.index for g in current.generators)), None)
            if grown is None:  # unreachable for finite groups
                raise InvariantViolation("normalizer ascent stalled")
            current = self.subgroup(current.generators + [grown])
        if current.order != target:
            raise InvariantViolation("Sylow 2-subgroup search ended below the 2-part of |G|")
        return current

    def involution_indices(self) -> list:
        """Indices of elements with g^2 = 1, identity included."""
        return [i for i, p in enumerate(self.elements) if mul(p, p) == identity(self.degree)]

    def o2_core(self) -> "PermGroup":
        """O_2(G): the union of the classes inside a Sylow 2-subgroup P.

        x lies in every conjugate of P exactly when x^G lies in P."""
        syl = self.sylow2()
        core = [self.elements[m] for c in self.conjugacy_classes()
                if all(self.elements[m] in syl.index for m in c.members)
                for m in c.members]
        return self._from_elements(sorted(core))

    def exponent(self) -> int:
        return lcm(*(c.order for c in self.conjugacy_classes()))

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
