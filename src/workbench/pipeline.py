"""End-to-end analysis: character table -> blocks -> couples -> FS vector ->
involution-module cross-checks against the symbolic classification.

The Morita shape of a concrete block is a labeled hypothesis: a builtin
family hint (PSL/PGL/A7/nilpotent) is verified by fitting the block's
degree profile to the shape's decomposition matrix, which also recovers
the simple-module dimensions used to compare MeatAxe output with the
predicted multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from . import blocks as blocklib
from . import linalg, modrep, solver
from .chartab import CharacterTable, capped_classes, dixon_table
from .errors import InvariantViolation
from .gf2 import GF2Field
from .groups import builtin_group, morita_hint
from .perm import generate, nu, read_generator_file
from .pgroup import is_dihedral_2group


def fit_morita_rows(table: CharacterTable, block, type_id: str):
    """Assign block rows to the shape's chi_1..chi_4 and solve for simple
    dimensions; returns (row_assignment, dims, families) or None.

    families come back ordered F_0, F_1, ..., F_(d-3) (sizes 1, 2, 4, ...).
    """
    sh = solver._SHAPES[type_id]
    d = block.defect
    nuG = nu(table.group.order)
    height0 = [i for i in block.rows if nu(table.degrees[i]) == nuG - d]
    height1 = [i for i in block.rows if i not in height0]
    if len(height0) != 4 or len(height1) != (1 << (d - 2)) - 1:
        return None
    if any(nu(table.degrees[i]) != nuG - d + 1 for i in height1):
        return None
    fams = table.two_conjugacy_families(height1)
    fams = sorted(fams, key=len)
    if [len(f) for f in fams] != [1 << j for j in range(d - 2)]:
        return None
    fam_degree = {table.degrees[i] for f in fams for i in f}
    if len(fam_degree) != 1:
        return None
    fam_degree = fam_degree.pop()
    l = len(sh["fam"])
    for perm in permutations(height0):
        degs = [table.degrees[i] for i in perm]
        dims = _solve_dims(sh, degs, fam_degree, l)
        if dims is not None:
            return tuple(perm), tuple(dims), tuple(tuple(f) for f in fams)
    return None


def _solve_dims(sh, degs, fam_degree, l):
    """Positive integer dims with dec * dims = degs and fam * dims = fam_degree."""
    sol = linalg.solve(list(zip(*sh["dec"], sh["fam"])), [[*degs, fam_degree]])
    if sol is None or len(sol[1]) != l:
        return None
    dims = sol[0][0]
    if any(x.denominator != 1 or x <= 0 for x in dims):
        return None
    return [int(x) for x in dims]


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


def analyze_group(group, name: str | None = None, seed: int = 0,
                  hint: str | None = None) -> dict:
    """Full pipeline for one group; returns a JSON-ready report."""
    if isinstance(group, str):
        name = group
        group = builtin_group(group)
    table, parts = table_blocks(group)
    if hint is None and name is not None:
        hint = morita_hint(name)
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
            _match_table2(table, b, rep, hint, factors)
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
    d = block.defect
    nuG = nu(table.group.order)
    height0 = [i for i in block.rows if nu(table.degrees[i]) == nuG - d]
    if len(height0) == 4:
        eps = sorted((table.fs_indicator(i) for i in height0), reverse=True)
        rep.fs_height0 = "".join("+" if e == 1 else ("0" if e == 0 else "-")
                                 for e in eps)
        height1 = [i for i in block.rows if i not in height0]
        fams = sorted(table.two_conjugacy_families(height1), key=len)
        vals = []
        for f in fams:
            fe = {table.fs_indicator(i) for i in f}
            if len(fe) != 1:
                rep.mismatches.append("FS not constant on a Galois family")
                return
            vals.append(fe.pop())
        rep.fs_family = "".join("+" if e == 1 else ("0" if e == 0 else "-")
                                for e in vals)


def _module_report(table, block, rep: BlockReport, omega, seed):
    """Fill in the cut's module fields; returns its MeatAxe factors, or
    None when the MeatAxe does not run."""
    cut = modrep.block_cut(table, block, omega)
    rep.komega_dim = cut.dim
    if isinstance(cut, modrep.GFModule) or cut.dim == 0:
        return None
    factors, summands, grouped = modrep.decompose_cut(cut, seed=seed)
    rep.meataxe = sorted((dim, mult) for _c, dim, mult in factors)
    if summands is not None:
        rep.summand_dims = sorted(s.dim for s in summands)
        rep.summand_multiplicities = sorted(m for _s, m in grouped)
        if block.is_real and block.couple is not None:
            val = modrep.dimension_valuation_check(table, block, block.couple,
                                                   summands)
            rep.valuation_ok = val["ok"]
            if not val["ok"]:
                rep.mismatches.append("summand dimension valuation failed")
    return factors


def _match_table2(table, block, rep: BlockReport, hint, factors):
    """Fit the Morita shape and compare FS values and multiplicities with
    the solver's cell.  The MeatAxe factors are compared over the algebraic
    closure: a GF(2) factor S with End(S) = GF(2^e) is e Galois-conjugate
    absolutely irreducible modules of dim S / e, each with S's multiplicity."""
    d = block.defect
    candidates = [hint] if hint else list(solver.MORITA_TYPES)
    fitted = None
    for ty in candidates:
        fit = fit_morita_rows(table, block, ty)
        if fit is not None:
            fitted = (ty, fit)
            break
    if fitted is None:
        rep.mismatches.append("no Morita shape fits the degree profile")
        return
    ty, (perm, dims, fams) = fitted
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
