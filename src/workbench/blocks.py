"""2-block partition, block idempotents mod 2, and defect couples.

Blocks are cut out by equality of reduced central characters
omega_B(C+) = |C| chi(c) / chi(1) mod 2, computed exactly in a common
field GF(2^F) from the table's integer power-basis values: the odd parts
of |C| and chi(1) are units that reduce to 1, so only their 2-parts and
the parity of each coordinate of chi(c) matter.  Defect couples (D, E)
follow the construction from a real defect class element c: E a Sylow
2-subgroup of C*(c), D = E n C(c), grown as D Sylow in C(c) and then E
Sylow in C*(c) above D.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import lcm

from .chartab import CharacterTable
from .cyclotomic import reduce_mod2
from .errors import InvariantViolation, NotRealBlock
from .gf2 import multiplicative_order_of_2
from .perm import PermGroup, nu
from .pgroup import classify_extension, is_dihedral_2group


def _is_trivial_row(table: CharacterTable, i: int) -> bool:
    return all(v == 1 for v in table.chars_p[i])


def omega_field(classes) -> int:
    """Common field degree F: lcm of ord_2 over odd parts of class orders."""
    return lcm(*(multiplicative_order_of_2(c.order >> nu(c.order)) for c in classes))


@dataclass
class BlockData:
    rows: tuple                 # character row indices
    omega: tuple                # central character mod 2, per class (GF(2^F) ints)
    field_f: int
    defect: int
    is_real: bool
    is_principal: bool
    real_defect_class_ids: tuple | None = None
    couple: DefectCouple | None = None
    etype: str | None = None
    idempotent: list | None = None   # e_B per class, once computed
    split: tuple | None = None       # (height-0 rows, families), once split

    def degrees(self, table: CharacterTable) -> list:
        return sorted(table.degrees[i] for i in self.rows)


def block_partition(table: CharacterTable) -> list:
    """Partition Irr(G) into 2-blocks by reduced central characters."""
    F = omega_field(table.classes)
    class_nus = [nu(len(c.members)) for c in table.classes]
    buckets = {}
    for i, row in enumerate(table.values):
        # omega(C_j) = 2^(s-b) * unit * chi(g_j), s = nu|C_j|, b = nu chi(1)
        b = nu(table.degrees[i])
        vec = tuple(0 if s > b else reduce_mod2(c.order, v, F, b - s)
                    for c, s, v in zip(table.classes, class_nus, row))
        buckets.setdefault(vec, []).append(i)
    nuG = nu(table.group.order)
    blocks = []
    for vec, rows in buckets.items():
        defect = nuG - min(nu(table.degrees[i]) for i in rows)
        row_set = set(rows)
        is_real = all(table.conj_char(i) in row_set for i in rows)
        principal = any(_is_trivial_row(table, i) for i in rows)
        blocks.append(BlockData(
            rows=tuple(rows), omega=vec, field_f=F, defect=defect,
            is_real=is_real, is_principal=principal))
    blocks.sort(key=lambda b: (not b.is_principal, -len(b.rows),
                               [table.degrees[i] for i in b.rows]))
    if sum(len(b.rows) for b in blocks) != table.k:
        raise InvariantViolation("blocks do not partition the characters")
    return blocks


def block_idempotent_support(table: CharacterTable, block: BlockData) -> list:
    """Coefficients of e_B per class: reduce((1/|G|) sum chi(1) chi(c^-1)).

    The sum is taken on integer power-basis vectors and divided by the
    2-part of |G| (the odd part is a unit).  Nonzero only on 2-regular
    classes; returned as GF(2^F) ints in the table's class order, and kept
    on the block for later calls.
    """
    if block.idempotent is not None:
        return block.idempotent
    nuG = nu(table.group.order)
    coeffs = []
    for jinv in table.inverse_map:
        total = [sum(table.degrees[i] * x for i, x in zip(block.rows, col))
                 for col in zip(*(table.values[i][jinv] for i in block.rows))]
        coeffs.append(reduce_mod2(table.classes[jinv].order, total, block.field_f, nuG))
    for j, a in enumerate(coeffs):
        if a and not table.classes[j].is_2regular:
            raise InvariantViolation("idempotent supported on a 2-singular class")
    block.idempotent = coeffs
    return coeffs


def height_split(table: CharacterTable, block: BlockData) -> tuple:
    """(height0, families): the rows of height 0 and, when there are four
    of them, the other rows in 2-conjugacy families, smallest first
    (otherwise families is None).  Kept on the block for later calls."""
    if block.split is None:
        nuG = nu(table.group.order)
        height0 = [i for i in block.rows if nu(table.degrees[i]) == nuG - block.defect]
        fams = None
        if len(height0) == 4:
            rest = [i for i in block.rows if i not in height0]
            fams = tuple(sorted(table.two_conjugacy_families(rest), key=len))
        block.split = tuple(height0), fams
    return block.split


def real_defect_classes(table: CharacterTable, block: BlockData) -> list:
    """Class ids that are real, 2-regular, in supp(e_B), with omega != 0."""
    if not block.is_real:
        raise NotRealBlock("real defect classes need a real block")
    supp = block_idempotent_support(table, block)
    out = []
    nuG = nu(table.group.order)
    for j, c in enumerate(table.classes):
        if not (c.is_real and c.is_2regular):
            continue
        if supp[j] == 0 or block.omega[j] == 0:
            continue
        # such a class is automatically a defect class
        if nu(len(c.members)) != nuG - block.defect:
            raise InvariantViolation("real defect class has the wrong 2-part")
        out.append(j)
    return out


@dataclass
class DefectCouple:
    c_index: int            # element index of the chosen class element
    D: PermGroup
    E: PermGroup
    etype: str | None


def defect_couple(table: CharacterTable, block: BlockData, found=None) -> DefectCouple:
    """Couple from the first real defect class: E Sylow in C*(c), D = E n C(c).

    `found` maps the element indices of one partition to the couples built
    from them, so blocks whose first real defect class has the same
    representative share one couple."""
    classes = real_defect_classes(table, block)
    if not classes:
        raise NotRealBlock("no real defect class found")
    c_idx = table.classes[classes[0]].rep
    found = {} if found is None else found
    if c_idx not in found:
        found[c_idx] = _couple_from_element(table.group, c_idx)
    return _of_defect(found[c_idx], block)


def _of_defect(couple: DefectCouple, block: BlockData) -> DefectCouple:
    """The couple, once |D| = 2^defect of the block is checked."""
    if couple.D.order != 1 << block.defect:
        raise InvariantViolation("|D| does not match the block's defect")
    return couple


def _couple_from_element(G: PermGroup, c_idx: int) -> DefectCouple:
    c = G.elements[c_idx]
    cent, ext = G.centralizers(c)
    if ext.order % cent.order or ext.order // cent.order not in (1, 2):
        raise InvariantViolation("[C*(c):C(c)] is not 1 or 2")
    D = cent.sylow2()
    E = ext.sylow2(D)
    # E n C(c) is a 2-subgroup of C(c) containing the Sylow D, so it is D
    if any(x not in D and x in cent for x in E.elements):
        raise InvariantViolation("E n C(c) is larger than D")
    etype = None
    if is_dihedral_2group(D):
        etype = classify_extension(D, E)
    return DefectCouple(c_index=c_idx, D=D, E=E, etype=etype)


def couple_conjugacy_check(table: CharacterTable, block: BlockData) -> bool:
    """Couples from every real defect class element are simultaneously conjugate.

    Every couple (D', E') is compared with the first, (D, E): it is
    conjugate to it when |E'| = |E| and some g conjugates each generator of
    D into D' and of E into E' (|D'| = |D| is the block's defect).  The
    conjugates x^g of a generator x under every g are one walk
    (`PermGroup._conjugates`), taken once per block, and each generator
    narrows the candidate g."""
    G = table.group
    couples = []
    for j in real_defect_classes(table, block):
        for m in table.classes[j].members:
            couples.append(_of_defect(_couple_from_element(G, m), block))
    if len(couples) <= 1:
        return True
    base = couples[0]
    rows = [[G._conjugates(x) for x in map(G.idx, H.generators)] for H in (base.D, base.E)]
    for other in couples[1:]:
        if other.E.order != base.E.order:
            return False
        candidates = range(G.order)
        for H, H_rows in zip((other.D, other.E), rows):
            inside = set(map(G.idx, H.elements))
            for row in H_rows:
                candidates = list(compress(candidates,
                                           map(inside.__contains__, map(row.__getitem__, candidates))))
        if not candidates:
            return False
    return True


def analyze_blocks(table: CharacterTable) -> list:
    """Full block report: partition plus couples for real blocks."""
    blocks, found = block_partition(table), {}
    for b in blocks:
        if not b.is_real:
            continue
        rdc = real_defect_classes(table, b)
        b.real_defect_class_ids = tuple(rdc)
        if rdc:
            b.couple = defect_couple(table, b, found)
            b.etype = b.couple.etype
    return blocks
