"""Finite-group engine over explicit permutation generators.

Permutations are sequences of 0-based images acting on the right:
(i)(pq) = ((i)p)q, i.e. mul(p, q)[i] = q[p[i]].  Groups materialize their
full element list (sorted, so element indices are deterministic) and all
later layers work with element indices.  An element is the closure's own
key, bytes up to degree 256 and a tuple above; `idx` and `in` take a
tuple, list or bytes (`key`).  Products of elements go through
integer index tables, not tuple products: the closure records the row
x -> x·g of each generator g, and the rows x -> h·x (`left`) and x -> x^-1
(`inv`) are walked down its BFS tree.  The class search builds the rows
x -> g^-1·x·g, and a root group keeps them: a walk of them from c gives
c^x for every x, so a centralizer and C*(c) read them, as does the
conjugation module on a set of elements.  A subgroup cut out by
index (a centralizer, C*(g), O_2) reads the rows of its root group.

Both loops over the elements run at C speed.  Up to degree 256 the
closure (and `powers`, and the Sylow ascent's conjugates) steps each
element as its bytes, so p·g is one `bytes.translate`; a larger degree
has no byte per point and keeps `mul`.
The closure finds elements by depth and then by letter, so its BFS order
is the walk's layout: one slice per run of BFS nodes with the same depth
and generator letter, filled from their parents one layer up.
"""

from __future__ import annotations

import os
import re
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, compress, count, repeat
from math import lcm
from operator import is_

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


def _stepping(degree: int, gens) -> tuple:
    """(start, step, acts), step(p, act) = p·g: bytes.translate up to degree 256, else `mul`."""
    if degree <= 256:
        return bytes(range(degree)), bytes.translate, [bytes(g) + bytes(256 - degree) for g in gens]
    return identity(degree), mul, list(gens)


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
    with open(path) as fh:
        parsed = [parse_cycles(ln) for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    degree = max((len(p) for p in parsed), default=1)
    return [pad(p, degree) for p in parsed]


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
    by their index into `elements`.  The index tables are built on first use.
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
        self._parent = None
        self._adopt(*self._close())

    def _adopt(self, elements: list, index: dict):
        """Install a sorted element list and its index as the table."""
        self.elements = elements
        self.index = index
        self.order = len(elements)
        self._members = range(self.order)  # root indices of the elements
        self._classes = None
        self._conjugations = None  # see conjugation_rows

    def _close(self) -> tuple:
        """Breadth-first closure: (sorted elements, index).  It finds a depth
        layer one letter at a time, so a BFS position is a slot of `_tables`,
        and keeps one product row per letter and the runs.  One letter moves
        distinct parents to distinct products, so a layer is stepped and
        looked up at C speed.  Up to degree 256 the keys are bytes and p·g is
        p.translate(g padded to 256 bytes); bytes of one length sort as tuples do."""
        n = self.degree
        start, step, acts = _stepping(n, self.generators)
        pos, found = {start: 0}, [start]
        prods, runs, lo = [array("i") for _ in acts], [], 0
        while lo < len(found):
            layer, hi = found[lo:], len(found)
            for k, g in enumerate(acts):
                qs = list(map(step, layer, repeat(g)))
                new = list(map(is_, map(pos.get, qs), repeat(None)))
                ups = array("i", compress(range(lo, hi), new))
                if ups:
                    if len(found) + len(ups) > self.cap:
                        raise CapExceeded(f"group order exceeds cap {self.cap}")
                    runs.append((len(found), len(found) + len(ups), k, ups))
                    pos.update(zip(compress(qs, new), count(len(found))))
                    found += compress(qs, new)
                prods[k].extend(map(pos.__getitem__, qs))
            lo = hi
        elements = sorted(found)
        unrank = array("i", map(pos.__getitem__, elements))  # index -> slot
        del pos  # the index is built in element order, so its values come sorted
        index = dict(zip(elements, count()))
        self._closure = (array("i", map(index.__getitem__, found)), unrank, prods, runs)
        return elements, index

    @cached_property
    def _tables(self) -> tuple:
        """(rights, runs, place): rights[k] is the row x -> x·g_k; each run
        (lo, hi, k, ups) holds the slots lo..hi-1 of the nodes x =
        parent(x)·g_k at one depth, ups their parents' slots, in the closure's
        (depth, letter) order; place[x] is element x's slot."""
        rank, unrank, prods, runs = self._closure  # rank: slot -> index
        del self._closure
        ints = sorted(self.index.values())  # rows share the index's int objects
        ranked = list(map(ints.__getitem__, rank))
        rights = [list(map(ranked.__getitem__, map(row.__getitem__, unrank))) for row in prods]
        runs = [(lo, hi, k, list(map(ints.__getitem__, ups))) for lo, hi, k, ups in runs]
        return rights, runs, list(map(ints.__getitem__, unrank))

    # -- element helpers ------------------------------------------------

    def key(self, p) -> bytes | Perm:
        """p (a tuple, list or bytes) as an element key: bytes up to degree
        256, else a tuple; NotMember if p has a point that no byte holds."""
        if self.degree > 256:
            return tuple(p)
        try:
            return bytes(p)
        except ValueError:
            raise NotMember(f"{p} not in group") from None

    def idx(self, p) -> int:
        try:
            return self.index[self.key(p)]
        except KeyError:
            raise NotMember(f"{p} not in group") from None

    def __contains__(self, p) -> bool:
        try:
            return self.key(p) in self.index
        except NotMember:
            return False

    def identity_idx(self) -> int:
        return self.idx(identity(self.degree))

    def inverse_idx(self, x: int) -> int:
        """The index of element x's inverse."""
        return self.idx(inverse(self.elements[x]))

    # -- index rows -------------------------------------------------------

    def walk(self, actions, start: int, in_slots: bool = False) -> list:
        """row[x] = `start` moved by actions[k] for each letter k of x's BFS
        word: row[p·g_k] = actions[k][row[p]].  With the rows x -> x·g_k it is
        x -> start·x; with a point action, the point's image under each x.
        One slice per (depth, letter) run fills the slots at C speed; a last
        map puts them in element order, unless `in_slots` keeps the row in
        slot order, where x's entry is at `slots([x])[0]`."""
        _rights, runs, place = self._tables
        row = [start] * self.order
        for lo, hi, k, ups in runs:
            row[lo:hi] = map(actions[k].__getitem__, map(row.__getitem__, ups))
        return row if in_slots else list(map(row.__getitem__, place))

    def slots(self, xs) -> list:
        """The slot of each element index in xs, where a row walked
        `in_slots` holds that element's entry.  A subgroup cut out by index
        has no closure, and its rows keep element order."""
        if self._parent:
            return list(xs)
        return list(map(self._tables[2].__getitem__, xs))

    def left(self, h: int, in_slots: bool = False) -> list:
        """L_h, the row x -> index(h·x); in slot order with `in_slots` (`walk`)."""
        if self._parent:
            return self._from_root(self._parent.left(self._members[h]))
        return self.walk(self._tables[0], h, in_slots)

    def powers(self, x: int, n: int) -> list:
        """Indices of x^0 .. x^(n-1), stepped as the closure steps p·g."""
        start, step, (g,) = _stepping(self.degree, [self.elements[x]])
        return list(map(self.index.__getitem__, accumulate(repeat(g, n - 1), step, initial=start)))

    @cached_property
    def inv(self) -> list:
        """The row x -> index(x^-1), walked as inv[p·g] = L_{g^-1}[inv[p]]."""
        if self._parent:
            return self._from_root(self._parent.inv)
        return self.walk([self.left(self.idx(inverse(g))) for g in self.generators],
                         self.identity_idx())

    def _from_root(self, row: list) -> list:
        """A row of the root group, read in this subgroup's indices."""
        els = self._parent.elements
        return [self.index[els[row[x]]] for x in self._members]

    def _root_idx(self, p: Perm) -> int:
        """p's index in the root group; NotMember unless p lies in this group."""
        return (self._parent or self).index[self.elements[self.idx(p)]]

    # -- conjugacy classes ----------------------------------------------

    def conjugation_rows(self) -> list:
        """The rows x -> g^-1·x·g = L_{g^-1}[R_g[x]], one per generator g, as
        array("i"), with R_g the closure's row x -> x·g.  A root group keeps
        them for its classes, centralizers and conjugation modules.  A
        subgroup cut out by index has no closure: it reads R_g[x] =
        (g^-1·x^-1)^-1 off `inv` and L_{g^-1}, and builds them anew."""
        if self._conjugations is not None:
            return self._conjugations
        rows = []
        for k, g in enumerate(self.generators):
            L = self.left(self.idx(inverse(g)))  # L_{g^-1}
            R = (map(self.inv.__getitem__, map(L.__getitem__, self.inv)) if self._parent
                 else self._tables[0][k])
            rows.append(array("i", map(L.__getitem__, R)))
        if self._parent is None:
            self._conjugations = rows
        return rows

    def _conjugates(self, r: int) -> list:
        """row[x] = the root index of c^x for each root element x, with c the
        root element r: one walk of the root's conjugation rows."""
        root = self._parent or self
        return root.walk(root.conjugation_rows(), r)

    def conjugacy_classes(self) -> list:
        """Partition of elements into conjugacy classes.

        Classes are ordered by (element order, class size, min element
        index); the representative is the minimal element index.  The
        orbits are searched under the generators' `conjugation_rows`.
        """
        if self._classes is not None:
            return self._classes
        moves = self.conjugation_rows()
        seen = bytearray(self.order)
        classes, index_ints = [], sorted(self.index.values())  # no new int per member
        for i in range(self.order):
            if seen[i]:
                continue
            seen[i] = 1
            orbit = [i]
            for x in orbit:
                for move in moves:
                    if not seen[y := move[x]]:
                        seen[y] = 1
                        orbit.append(y)
            members = tuple(map(index_ints.__getitem__, sorted(orbit)))
            o = perm_order(self.elements[i])
            classes.append(ConjClass(rep=i, members=members, order=o,
                                     is_real=self.inverse_idx(i) in members,
                                     is_2regular=o % 2 == 1))
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

    def _orders(self) -> list:
        """The order of each element, read off the root group's classes."""
        root = self._parent or self
        orders = [c.order for c in root.conjugacy_classes()]
        return list(map(orders.__getitem__, map(root.class_of.__getitem__, self._members)))

    # -- subgroups -------------------------------------------------------

    def subgroup(self, gen_perms) -> "PermGroup":
        return PermGroup(list(gen_perms), degree=self.degree, cap=self.cap)

    def centralizer(self, *members: Perm) -> "PermGroup":
        """The elements x with p^x = p for every one of `members`, each read
        off one walk of the root's conjugation rows (`_conjugates`)."""
        root, keep = self._parent or self, self._members
        for p in members:
            r = self._root_idx(p)
            row = self._conjugates(r)
            keep = array("i", compress(keep, map(r.__eq__, map(row.__getitem__, keep))))
        return root._sub(keep)

    def extended_centralizer(self, p: Perm) -> "PermGroup":
        """C*(g) = N({g, g^-1}), the stabilizer of the pair {g, g^-1}
        (`centralizers`)."""
        return self.centralizers(p)[1]

    def centralizers(self, p: Perm) -> tuple:
        """(C(g), C*(g)): the elements x with p^x = p, and those with p^x =
        p or p^-1, both read off one walk (`_conjugates`); (G, G) with no
        walk when p's class in the root group is {p}."""
        root, r = self._parent or self, self._root_idx(p)
        if root.conjugacy_classes()[root.class_of[r]].size() == 1:
            return self, self
        row, pair, keep = self._conjugates(r), {r, root.inverse_idx(r)}, self._members
        images = list(map(row.__getitem__, keep)) if self._parent else row
        return (root._sub(array("i", compress(keep, map(r.__eq__, images)))),
                root._sub(array("i", compress(keep, map(pair.__contains__, images)))))

    def _from_elements(self, elems) -> "PermGroup":
        root = self._parent or self
        return root._sub(sorted(root.idx(p) for p in elems))

    def _sub(self, keep) -> "PermGroup":
        """The subgroup of this root group on the sorted indices `keep`;
        its generators are its elements.  All of the group is the group."""
        if len(keep) == self.order:
            return self
        g = PermGroup.__new__(PermGroup)
        g.degree, g.cap, g._parent = self.degree, self.cap, self
        g.generators = [self.elements[x] for x in keep]
        g._adopt(list(g.generators), {p: i for i, p in enumerate(g.generators)})
        g._members = array("i", keep)
        return g

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(p in other for p in self.elements)

    # -- 2-local structure -------------------------------------------------

    def sylow2(self, start: "PermGroup | None" = None) -> "PermGroup":
        """A Sylow 2-subgroup containing the 2-subgroup `start` (default 1);
        `start` itself when its order is already the 2-part of |G|.

        Grows P one generator at a time: each step adjoins the first
        2-element y outside P, in element order, with g^y in P for every
        generator g of P.  Such a y normalizes P, so P<y> is a 2-group; and
        a y exists while P is not Sylow, since P is then proper in N_S(P)
        for a Sylow S containing P.  There is no canonical choice.  Each
        step scans the elements from the first, telling a 2-element by its
        root class, so it reads no orders past the y it adjoins.  g^y =
        y^-1·g·y is stepped as the closure steps p·g and looked up in P's
        index; y^-1 = y^(o-1) for y of order o.
        """
        target = 1 << nu(self.order)
        current = start if start is not None else self.subgroup([])
        if current.order == target:
            return current
        root, n = self._parent or self, self.degree
        els, class_of = root.elements, root.class_of
        orders = [c.order for c in root.conjugacy_classes()]
        two = [o & (o - 1) == 0 for o in orders]  # per root class
        _start, step, _acts = _stepping(n, [])
        conjugators = {}  # y -> (the act of y, y^-1)

        def normalizes(y, acts, inside) -> bool:
            if y not in conjugators:
                (act,) = _stepping(n, [els[y]])[2]
                o = orders[class_of[y]]
                conjugators[y] = act, reduce(step, repeat(act, o - 2), els[y])  # y^(o-1)
            act, y_inv = conjugators[y]
            for g in acts:
                if step(step(y_inv, g), act) not in inside:
                    return False
            return True

        while current.order < target:
            inside, acts = current.index, _stepping(n, current.generators)[2]
            grown = next((y for y in self._members if two[class_of[y]]
                          and els[y] not in inside and normalizes(y, acts, inside)), None)
            if grown is None:  # unreachable for finite groups
                raise InvariantViolation("normalizer ascent stalled")
            current = self.subgroup(current.generators + [els[grown]])
        if current.order != target:
            raise InvariantViolation("Sylow 2-subgroup search ended below the 2-part of |G|")
        return current

    def involution_indices(self) -> list:
        """Indices of elements with g^2 = 1, identity included."""
        return [i for i, o in enumerate(self._orders()) if o <= 2]

    def o2_core(self) -> "PermGroup":
        """O_2(G): the union of the classes inside a Sylow 2-subgroup P.

        x lies in every conjugate of P exactly when x^G lies in P."""
        syl = self.sylow2()
        core = [self.elements[m] for c in self.conjugacy_classes()
                if all(self.elements[m] in syl.index for m in c.members)
                for m in c.members]
        return self._from_elements(core)

    def exponent(self) -> int:
        return lcm(*(c.order for c in self.conjugacy_classes()))


def generate(gens, degree: int | None = None, cap: int | None = None) -> PermGroup:
    """Public constructor used by the CLI and the group catalog."""
    return PermGroup(gens, degree=degree, cap=cap)
