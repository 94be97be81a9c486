"""Command-line front end: `workbench <subcommand>`.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 cannot
compute: a `WorkbenchError` (a cap exceeded, a field out of range, a failed
internal check) ends the run with one line `workbench: <Type>: <message>`
on stderr.  Bad input names exit 2 with one line `workbench: <message>`:
an unknown builtin group, a generator file that cannot be read or parsed,
or an `invmod --block` that is neither 'principal' nor a block index.
All randomized internals take --seed (default 0); WORKBENCH_CAP_ORDER
overrides the group-order cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import modrep, pgroup, solver
from .chartab import dixon_table
from .errors import FieldTooSmall, WorkbenchError
from .groups import builtin_group
from .perm import generate, read_generator_file
from .pipeline import analyze_group, scan_groups, table_blocks


class _UsageError(Exception):
    """Bad input named on the command line; `main` exits 2."""


def _load_group(spec: str, cap=None):
    if spec.endswith(".txt") or "/" in spec:
        try:
            gens = read_generator_file(spec)
        except OSError as exc:
            raise _UsageError(f"cannot read {spec}: {exc.strerror}") from None
        except ValueError as exc:
            raise _UsageError(f"{spec}: {exc}") from None
        return generate(gens, cap=cap), spec
    try:
        return builtin_group(spec, cap=cap), spec
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _emit(payload, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _pretty(payload)


def _pretty(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _pretty(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _pretty(v, indent)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def cmd_group(args) -> int:
    G, name = _load_group(args.group, cap=args.cap_order)
    classes = G.conjugacy_classes()
    payload = {
        "group": name, "order": G.order, "degree": G.degree,
        "classes": [{"order": c.order, "size": c.size(), "real": c.is_real,
                     "two_regular": c.is_2regular} for c in classes],
        "involutions": len(G.involution_indices()),
        "sylow2_order": G.sylow2().order,
    }
    _emit(payload, args.json)
    return 0


def cmd_extensions(args) -> int:
    if args.census:
        census = pgroup.census_degree2_extensions(
            pgroup.build_dihedral(args.d, cap=args.cap_order))
        payload = {"d": args.d, "classes": len(census),
                   "types": [t for t, _ in census]}
        expected = 4 if args.d == 3 else 5
        _emit(payload, args.json)
        return 0 if len(census) == expected else 1
    payload = {"d": args.d,
               "types": list(pgroup._available_types(args.d))}
    _emit(payload, args.json)
    return 0


def cmd_table1(args) -> int:
    frame = pgroup.build_dihedral(args.d, cap=args.cap_order)
    ext = pgroup.build_extension(frame, args.type)
    rows = pgroup.eclass_table(ext)
    payload = {"d": args.d, "type": args.type,
               "rows": [{"rep": label, "order2": inv, "centralizer": cname}
                        for label, inv, cname, _size in rows]}
    expected = pgroup.expected_table1_rows(args.d, args.type)
    ok = all(r[0] == e[0] and r[1] == e[2] and r[2] == e[3]
             for r, e in zip(rows, expected))
    payload["matches_reference"] = ok
    _emit(payload, args.json)
    return 0 if ok else 1


def cmd_chartab(args) -> int:
    G, name = _load_group(args.group, cap=args.cap_order)
    table = dixon_table(G)
    payload = {"group": name} | table.to_json()
    _emit(payload, args.json)
    return 0


def cmd_blocks(args) -> int:
    G, name = _load_group(args.group, cap=args.cap_order)
    table, parts = table_blocks(G)
    out = []
    for b in parts:
        entry = {
            "degrees": b.degrees(table), "defect": b.defect,
            "real": b.is_real, "principal": b.is_principal,
        }
        if b.couple is not None:
            D, E = b.couple.D, b.couple.E
            entry["defect_group_order"] = D.order
            entry["defect_group_dihedral"] = pgroup.is_dihedral_2group(D)
            entry["defect_group_fingerprint"] = list(pgroup.group_fingerprint(D))
            entry["extended_index"] = E.order // D.order
            entry["etype"] = b.etype
        if b.real_defect_class_ids is not None:
            entry["real_defect_class_orders"] = [
                table.classes[j].order for j in b.real_defect_class_ids]
        out.append(entry)
    _emit({"group": name, "order": G.order, "blocks": out}, args.json)
    return 0


def cmd_invmod(args) -> int:
    G, name = _load_group(args.group, cap=args.cap_order)
    table, parts = table_blocks(G)
    if args.block == "principal":
        block = next(b for b in parts if b.is_principal)
    elif args.block.isdecimal() and int(args.block) < len(parts):
        block = parts[int(args.block)]
    else:
        raise _UsageError(f"--block {args.block}: expected 'principal' or a "
                          f"block index in 0..{len(parts) - 1}")
    omega = modrep.involution_perm_module(G)
    cut = modrep.block_cut(table, block, omega)
    payload = {"group": name, "omega_dim": omega.dim, "dim": cut.dim}
    if isinstance(cut, modrep.GFModule):
        if args.dump_matrices:
            raise FieldTooSmall(f"block {args.block} is cut over GF(2^{cut.field.f}); "
                                f"only a GF(2) cut has action matrices to dump")
        payload["field"] = f"GF(2^{cut.field.f})"
        _emit(payload, args.json)
        return 0
    if cut.dim:
        factors, summands, grouped = modrep.decompose_cut(cut, seed=args.seed)
        payload["factors"] = [[dim, mult] for _c, dim, mult in factors]
        payload["summands"] = [[s.dim, mult] for s, mult in grouped]
        if block.couple is not None:
            payload["checks"] = modrep.dimension_valuation_check(table, block, summands)
    if args.dump_matrices:
        with open(args.dump_matrices, "w") as fh:
            fh.write(cut.export_text())
        payload["matrices_written"] = args.dump_matrices
    _emit(payload, args.json)
    return 0


def cmd_solve(args) -> int:
    sols = solver.solve(args.morita, args.etype, args.d,
                        tiebreak=not args.no_tiebreak)
    status = {0: "infeasible", 1: "unique"}.get(len(sols), "ambiguous")
    payload = {"cell": {"morita": args.morita, "etype": args.etype, "d": args.d},
               "status": status,
               "solutions": [s.to_json() for s in sols]}
    _emit(payload, args.json)
    return 0


def cmd_verify_table2(args) -> int:
    report = solver.verify_table2(args.d_range, tiebreak=not args.no_tiebreak)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows_ok = sum(1 for c in report["cells"] if c["ok"])
        for c in report["cells"]:
            mark = "OK " if c["ok"] else "FAIL"
            print(f"{mark} ({c['morita']:>3},{c['etype']},d={c['d']}) "
                  f"{c['status']}")
        print(f"{rows_ok}/{len(report['cells'])} cells OK; "
              f"{report['populated']} populated rows, "
              f"{report['excluded']} excluded cells")
    return 0 if report["ok"] else 1


def cmd_pipeline(args) -> int:
    G, name = _load_group(args.group, cap=args.cap_order)
    report = analyze_group(G, name=name, seed=args.seed)
    _emit(report, args.json)
    return 0 if not report["mismatches"] else 1


def cmd_scan(args) -> int:
    results = scan_groups(args.files, cap=args.cap_order)
    _emit({"scanned": len(results), "results": results}, args.json)
    return 0


def _dihedral_d(text: str, hi: int | None = None) -> int:
    """A dihedral parameter d >= 3, and d <= hi when hi is given."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if d < 3 or (hi is not None and d > hi):
        bound = ">= 3" if hi is None else f"in 3..{hi}"
        raise argparse.ArgumentTypeError(f"d must be {bound}, got {d}")
    return d


def _solver_d(text: str) -> int:
    """A dihedral parameter d the sign solver accepts (3..MAX_D)."""
    return _dihedral_d(text, solver.MAX_D)


def _solver_d_range(text: str) -> tuple:
    """'LO..HI' with 3 <= LO <= HI <= MAX_D, as the tuple of d values."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    lo, hi = _solver_d(lo), _solver_d(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return tuple(range(lo, hi + 1))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized internals (default 0)")
    common.add_argument("--cap-order", type=int, default=None,
                        help="override the group order cap")
    common.add_argument("--json", action="store_true", help="JSON output")
    ap = argparse.ArgumentParser(
        prog="workbench",
        description="2-block / Frobenius-Schur indicator workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("group", help="order/classes/involutions of a group")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_group)

    p = add_parser("extensions", help="degree-2 extension census of D_{2^d}")
    p.add_argument("--d", type=_dihedral_d, required=True)
    p.add_argument("--census", action="store_true")
    p.set_defaults(fn=cmd_extensions)

    p = add_parser("table1", help="E-classes in E minus D for one type")
    p.add_argument("--d", type=_dihedral_d, required=True)
    p.add_argument("--type", required=True, choices=pgroup.EXT_TYPES)
    p.set_defaults(fn=cmd_table1)

    p = add_parser("chartab", help="exact character table")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_chartab)

    p = add_parser("blocks", help="2-block partition and defect couples")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_blocks)

    p = add_parser("invmod", help="involution module of one block")
    p.add_argument("--group", required=True)
    p.add_argument("--block", default="principal",
                   help="'principal' or a block index")
    p.add_argument("--dump-matrices", default=None,
                   help="write the cut's action matrices to a file")
    p.set_defaults(fn=cmd_invmod)

    p = add_parser("solve", help="solve one symbolic cell")
    p.add_argument("--morita", required=True, choices=solver.MORITA_TYPES)
    p.add_argument("--etype", required=True,
                   choices=pgroup.EXT_TYPES + ("principal",))
    p.add_argument("--d", type=_solver_d, required=True)
    p.add_argument("--no-tiebreak", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = add_parser("verify-table2", help="diff the solver against the shipped classification table")
    p.add_argument("--d-range", type=_solver_d_range, default="3..6",
                   help=f"LO..HI with 3 <= LO <= HI <= {solver.MAX_D} (default 3..6)")
    p.add_argument("--no-tiebreak", action="store_true")
    p.set_defaults(fn=cmd_verify_table2)

    p = add_parser("pipeline", help="full end-to-end report for a group")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_pipeline)

    p = add_parser("scan", help="hunt group files for non-(a) E-types")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_scan)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except _UsageError as exc:
        print(f"workbench: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"workbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
