"""End-to-end analysis: character table -> blocks -> couples -> FS vector ->
involution-module cross-checks against the symbolic classification.

The Morita shape of a real block with dihedral defect group is read off
its degree profile alone: the shape whose decomposition matrix, with the
row of the height-1 families, carries some assignment of the height-0
degrees and the family degree to positive integer simple-module
dimensions.  No two shapes share a profile, so the fit names the shape,
and the dimensions it recovers are what the MeatAxe output is compared
with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import lcm
from operator import mul

from . import blocks as blocklib
from . import linalg, modrep, solver
from .chartab import CharacterTable, capped_classes, dixon_table
from .errors import InvariantViolation
from .gf2 import GF2Field
from .groups import builtin_group
from .perm import generate, nu, read_generator_file
from .pgroup import is_dihedral_2group


def fit_morita_rows(table: CharacterTable, block):
    """The Morita shape that fits the block's degree profile: (type, row
    assignment, dims, families) for the first shape of `solver.MORITA_TYPES`
    and the first assignment of the height-0 rows to its chi_1..chi_4 with
    positive integer simple dimensions (`_shape_dims`), or None.

    families come back ordered F_0, F_1, ..., F_(d-3) (sizes 1, 2, 4, ...)."""
    d = block.defect
    height0, fams = blocklib.height_split(table, block)
    if fams is None or [len(f) for f in fams] != [1 << j for j in range(d - 2)]:
        return None
    fam_degree = {table.degrees[i] for f in fams for i in f}
    if len(fam_degree) != 1:
        return None
    fam_degree = fam_degree.pop()
    if nu(fam_degree) != nu(table.group.order) - d + 1:
        return None
    for ty in solver.MORITA_TYPES:
        for perm in permutations(height0):
            dims = _shape_dims(ty, [*(table.degrees[i] for i in perm), fam_degree])
            if dims is not None:
                return ty, perm, dims, fams
    return None


@lru_cache(maxsize=None)
def _left_inverse(type_id: str) -> tuple:
    """(A, Q, D): A the shape's rows chi_1..chi_4 and family row, and an
    integer matrix Q with Q A = D I, D > 0, from one rational solve.  A has
    full column rank and depends on the shape only, so each shape is
    solved once."""
    sh = solver._SHAPES[type_id]
    A = (*sh["dec"], sh["fam"])
    l = len(sh["fam"])
    ys, _pivots = linalg.solve(A, [[int(m == k) for m in range(l)] for k in range(l)])
    D = lcm(*(y.denominator for row in ys for y in row))
    return A, tuple(tuple(int(y * D) for y in row) for row in ys), D


def _shape_dims(type_id: str, profile):
    """The positive integer dims with A dims = profile, A the shape's rows
    chi_1..chi_4 and family row, or None: dims = Q profile / D
    (`_left_inverse`) when that is a positive integer vector that A maps
    back onto the profile."""
    A, Q, D = _left_inverse(type_id)
    dims = []
    for row in Q:
        x, r = divmod(sum(map(mul, row, profile)), D)
        if x <= 0 or r:
            return None
        dims.append(x)
    if [sum(map(mul, row, dims)) for row in A] != list(profile):
        return None
    return tuple(dims)


def table_blocks(G) -> tuple:
    """(table, `blocks.analyze_blocks` of it).  F reads only the class orders:
    a GF(2^F) with no pinned polynomial is refused past the class cap, before
    the table is built."""
    GF2Field(blocklib.omega_field(capped_classes(G)))
    table = dixon_table(G)
    return table, blocklib.analyze_blocks(table)


@dataclass
class BlockReport:
    degrees: list
    defect: int
    is_real: bool
    is_principal: bool
    defect_group_order: int | None = None
    defect_group_dihedral: bool | None = None
    etype: str | None = None
    real_defect_class_orders: list = field(default_factory=list)
    morita: str | None = None
    simple_dims: list | None = None
    fs_height0: str | None = None
    fs_family: str | None = None
    komega_dim: int | None = None
    meataxe: list | None = None
    predicted: list | None = None
    summand_dims: list | None = None
    summand_multiplicities: list | None = None
    valuation_ok: bool | None = None
    table2_row: str | None = None
    mismatches: list = field(default_factory=list)

    def to_json(self):
        return {k: v for k, v in self.__dict__.items()}


def analyze_group(group, name: str | None = None, seed: int = 0) -> dict:
    """Full pipeline for one group; returns a JSON-ready report.  The name
    is only the report's "group" label."""
    if isinstance(group, str):
        name = group
        group = builtin_group(group)
    table, parts = table_blocks(group)
    omega = modrep.involution_perm_module(group)
    reports = []
    total_cut = 0
    for b in parts:
        rep = BlockReport(
            degrees=b.degrees(table), defect=b.defect,
            is_real=b.is_real, is_principal=b.is_principal)
        if b.real_defect_class_ids is not None:
            rep.real_defect_class_orders = [table.classes[j].order
                                            for j in b.real_defect_class_ids]
        if b.couple is not None:
            D = b.couple.D
            rep.defect_group_order = D.order
            rep.defect_group_dihedral = is_dihedral_2group(D)
            rep.etype = b.etype
        _fs_report(table, b, rep)
        factors = _module_report(table, b, rep, omega, seed)
        total_cut += rep.komega_dim
        if rep.defect_group_dihedral and b.etype is not None:
            _match_table2(table, b, rep, factors)
        reports.append(rep)
    out = {
        "group": name or "custom",
        "order": group.order,
        "degrees": list(table.degrees),
        "fs_vector": list(table.fs_vector()),
        "involution_count": omega.dim,  # k-Omega has a point per involution
        "fs_count_identity_ok": sum(e * deg for e, deg in
                                    zip(table.fs_vector(), table.degrees)) == omega.dim,
        "blocks": [r.to_json() for r in reports],
        "komega_dim": omega.dim,
        "cut_dims_sum_ok": total_cut == omega.dim,
    }
    out["mismatches"] = [m for r in reports for m in r.mismatches]
    if not out["fs_count_identity_ok"]:
        out["mismatches"].append("FS involution-count identity failed")
    return out


def _fs_report(table, block, rep: BlockReport):
    height0, fams = blocklib.height_split(table, block)
    if fams is None:
        return
    rep.fs_height0 = solver.sign_string(sorted(map(table.fs_indicator, height0), reverse=True))
    vals = []
    for f in fams:
        fe = {table.fs_indicator(i) for i in f}
        if len(fe) != 1:
            rep.mismatches.append("FS not constant on a Galois family")
            return
        vals.append(fe.pop())
    rep.fs_family = solver.sign_string(vals)


def _module_report(table, block, rep: BlockReport, omega, seed):
    """Fill in the cut's module fields; returns its MeatAxe factors, or
    None when the MeatAxe does not run."""
    cut = modrep.block_cut(table, block, omega)
    rep.komega_dim = cut.dim
    if isinstance(cut, modrep.GFModule) or cut.dim == 0:
        return None
    factors, summands, grouped = modrep.decompose_cut(cut, seed=seed)
    rep.meataxe = sorted((dim, mult) for _c, dim, mult in factors)
    rep.summand_dims = sorted(s.dim for s in summands)
    rep.summand_multiplicities = sorted(m for _s, m in grouped)
    if block.couple is not None:
        val = modrep.dimension_valuation_check(table, block, summands)
        rep.valuation_ok = val["ok"]
        if not val["ok"]:
            rep.mismatches.append("summand dimension valuation failed")
    return factors


def _match_table2(table, block, rep: BlockReport, factors):
    """Fit the Morita shape and compare FS values and multiplicities with
    the solver's cell.  The MeatAxe factors are compared over the algebraic
    closure: a GF(2) factor S with End(S) = GF(2^e) is e Galois-conjugate
    absolutely irreducible modules of dim S / e, each with S's multiplicity."""
    d = block.defect
    fit = fit_morita_rows(table, block)
    if fit is None:
        rep.mismatches.append("no Morita shape fits the degree profile")
        return
    ty, perm, dims, fams = fit
    rep.morita = ty
    rep.simple_dims = list(dims)
    sols = solver.solve(ty, block.etype, d)
    if len(sols) != 1:
        rep.mismatches.append(f"solver cell ({ty},{rep.etype},{d}) not unique")
        return
    sol = sols[0]
    rep.table2_row = f"{solver._SHAPES[ty]['family']} ({block.etype})"
    # FS comparison
    eps_rows = tuple(table.fs_indicator(i) for i in perm)
    if tuple(sorted(eps_rows, reverse=True)) != sol.eps_height0:
        rep.mismatches.append("height-0 FS vector differs from the classification")
    fam_eps = []
    for f in fams:
        fam_eps.append(table.fs_indicator(f[0]))
    if tuple(fam_eps) != sol.eps_family:
        rep.mismatches.append("family FS vector differs from the classification")
    # multiplicity comparison from the actual FS values; family j has 2^j
    # members (`fit_morita_rows`), as the formula assumes
    mults = solver.predicted_multiplicities_raw(solver.build_profile(ty, d),
                                                eps_rows, fam_eps)
    rep.predicted = sorted(zip(dims, mults))
    if tuple(mults) != sol.multiplicities:
        rep.mismatches.append("predicted multiplicities differ from solver cell")
    if factors is None:
        return
    absolute = sorted((dim // c.end_dim, mult) for c, dim, mult in factors
                      for _copy in range(c.end_dim))
    if absolute != rep.predicted:
        rep.mismatches.append(f"MeatAxe factors {rep.meataxe} != predicted {rep.predicted}")


def scan_groups(paths, cap=None) -> list:
    """Hunt generator files for dihedral real blocks with E-type != (a).

    A file that cannot be read or computed gets an "error" entry and the
    scan goes on; an InvariantViolation is a bug, not a property of the
    file, so it propagates."""
    out = []
    for path in paths:
        entry = {"path": str(path)}
        try:
            entry.update(_scan_file(path, cap))
        except InvariantViolation:
            raise
        except Exception as exc:  # scan keeps going past bad files
            entry["error"] = f"{type(exc).__name__}: {exc}"
        out.append(entry)
    return out


def _scan_file(path, cap) -> dict:
    """One file's scan entry.  Its group and table die on return, so they
    are not held while the next file's group is built."""
    table, parts = table_blocks(generate(read_generator_file(path), cap=cap))
    hits = [{"degrees": b.degrees(table), "defect": b.defect, "etype": b.etype}
            for b in parts if b.etype not in (None, "principal", "a")]
    return {"order": table.group.order, "blocks": len(parts), "nontrivial_etype_blocks": hits}
