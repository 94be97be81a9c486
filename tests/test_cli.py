import hashlib
import json
from pathlib import Path

import pytest

from workbench import cli, pipeline, solver
from workbench.perm import generate, identity, mul, read_generator_file

GROUP_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_command(capsys):
    code, out = run(capsys, ["group", "--group", "psl27", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 168
    assert data["involutions"] == 22
    assert data["sylow2_order"] == 8


def test_json_round_trip(capsys):
    code, out = run(capsys, ["blocks", "--group", "s5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()


def test_extensions_census(capsys):
    code, out = run(capsys, ["extensions", "--d", "4", "--census", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == 5
    assert data["types"] == ["a", "b", "c", "d", "e"]


def test_table1_command(capsys):
    code, out = run(capsys, ["table1", "--d", "4", "--type", "c", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["matches_reference"] is True
    assert {"rep": "e", "order2": True, "centralizer": "S_1"} in data["rows"]


def test_chartab_command(capsys):
    code, out = run(capsys, ["chartab", "--group", "psl27", "--json"])
    assert code == 0
    data = json.loads(out)
    assert sorted(data["degrees"]) == [1, 3, 3, 6, 7, 8]
    assert sorted(data["fs_vector"]) == [0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("name", ["pgl2_17", "psl2_23"])
def test_chartab_command_large_conductor(capsys, name):
    # summed in Q(zeta), the FS indicators would need conductors 1224 and
    # 1518, above the cap; decided mod p they need none
    path = GROUP_FILES / f"{name}.txt"
    code, out = run(capsys, ["chartab", "--json", "--group", str(path)])
    assert code == 0
    data = json.loads(out)
    G = generate(read_generator_file(path))
    one = identity(len(G.elements[0]))
    squares_one = sum(1 for g in G.elements if mul(g, g) == one)
    assert sum(e * d for e, d in zip(data["fs_vector"], data["degrees"])) == squares_one


def test_blocks_refuses_the_field_before_the_table(capsys, monkeypatch):
    # chartab needs no GF(2^F) and builds psl2_23's table
    # (test_chartab_command_large_conductor); blocks needs F = 110, and is
    # refused with no table built
    def no_table(_G):
        raise AssertionError("dixon_table was called")

    monkeypatch.setattr(pipeline, "dixon_table", no_table)
    code = cli.main(["blocks", "--group", str(GROUP_FILES / "psl2_23.txt")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "workbench: FieldTooSmall: no primitive polynomial pinned for f=110"]


def test_blocks_command(capsys):
    code, out = run(capsys, ["blocks", "--group", "a7", "--json"])
    assert code == 0
    data = json.loads(out)
    principal = next(b for b in data["blocks"] if b["principal"])
    assert principal["degrees"] == [1, 14, 15, 21, 35]
    assert principal["etype"] == "principal"


def test_invmod_command(capsys, tmp_path):
    dump = tmp_path / "cut.txt"
    code, out = run(capsys, ["invmod", "--group", "psl27",
                             "--block", "principal", "--json",
                             "--dump-matrices", str(dump)])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 14
    assert data["factors"] == [[1, 2], [3, 2], [3, 2]]
    assert sorted(m for _d, m in data["summands"]) == [1, 1, 2]
    assert dump.exists() and dump.read_text().startswith("# module dim=14")


def test_pipeline_and_invmod_on_the_trivial_group(capsys, tmp_path):
    # a generator file of comments only is the trivial group: kOmega is one
    # point, acted on by the identity, and both reports finish
    f = tmp_path / "trivial.txt"
    f.write_text("# no generators\n")
    code, out = run(capsys, ["pipeline", "--group", str(f), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1 and data["komega_dim"] == 1 and data["mismatches"] == []
    [block] = data["blocks"]
    assert block["is_principal"] and block["komega_dim"] == 1
    assert block["meataxe"] == [[1, 1]] and block["mismatches"] == []
    code, out = run(capsys, ["invmod", "--group", str(f), "--json"])
    assert code == 0
    data = json.loads(out)
    assert (data["omega_dim"], data["dim"], data["factors"]) == (1, 1, [[1, 1]])
    assert data["checks"]["ok"] is True


def test_invmod_splits_a_cut_above_256_dimensions(capsys, tmp_path):
    # S7 x C2: the 344-dimensional principal cut is split and checked
    f = tmp_path / "s7xc2.txt"
    f.write_text("(1 2 3 4 5 6 7)\n(1 2)\n(8 9)\n")
    code, out = run(capsys, ["invmod", "--group", str(f), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 344
    assert data["summands"] == [[1, 8], [14, 4], [70, 4]]
    assert data["checks"]["ok"] is True


@pytest.mark.parametrize("group,block,digest", [
    ("psl27", "principal", "5028cc8f221989e19565053859883381b8eb7c5fda2314f07b2febe0d26e2bfa"),
    # the Frobenius group 7:3: its block 3 is GF(2)-rational and cuts k-Omega to 0
    ("f21.txt", "3", "c03c794715e22ffbb0550db8afd8adacae040290e95ba7f221316731fe91c31f")],
    ids=["psl27-principal", "f21-dim0"])
def test_invmod_dump_is_pinned(capsys, tmp_path, group, block, digest):
    # a cut builds its matrices only when they are read; the dump is the
    # text the eagerly built cut wrote
    if group.endswith(".txt"):
        (tmp_path / group).write_text("(1 2 3 4 5 6 7)\n(2 3 5)(4 7 6)\n")
        group = str(tmp_path / group)
    dump = tmp_path / "cut.txt"
    code, _out = run(capsys, ["invmod", "--group", group, "--block", block,
                              "--json", "--dump-matrices", str(dump)])
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_invmod_dump_of_non_rational_cut(capsys, tmp_path):
    # psl2_9 block 1 is cut over GF(2^2), the field of its e_B (a Frobenius
    # orbit of length 2): no GF(2) action matrices to write
    dump = tmp_path / "cut.txt"
    code = cli.main(["invmod", "--group", "psl2_9", "--block", "1",
                     "--dump-matrices", str(dump)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not dump.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("workbench: FieldTooSmall: ")


def test_invmod_reports_the_field_of_a_non_rational_block(capsys):
    # psl2_11 block 2: the classes need GF(2^20), but e_B has a Frobenius
    # orbit of length 2, so the block is defined over GF(2^2)
    code, out = run(capsys, ["invmod", "--group", "psl2_11", "--block", "2", "--json"])
    assert code == 0
    assert json.loads(out)["field"] == "GF(2^2)"


def test_solve_command(capsys):
    code, out = run(capsys, ["solve", "--morita", "iii", "--etype", "c",
                             "--d", "4", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "infeasible"
    code, out = run(capsys, ["solve", "--morita", "iv", "--etype", "a",
                             "--d", "3", "--no-tiebreak", "--json"])
    assert json.loads(out)["status"] == "ambiguous"


def test_verify_table2_command(capsys):
    code, out = run(capsys, ["verify-table2", "--d-range", "3..4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["populated"] == 17


def test_verify_table2_mutation_exit_code(capsys, monkeypatch):
    # any perturbation of the golden data must flip the exit code to 1
    golden = solver.golden_table2()
    import copy
    for idx in (0, 7, 16):
        broken = copy.deepcopy(golden)
        row = broken["rows"][idx]
        row["eps_family_top"] = -row["eps_family_top"] if row["eps_family_top"] else 1
        monkeypatch.setattr(solver, "golden_table2", lambda b=broken: b)
        # 3..4 so that the type-(e) rows are exercised too
        code, _out = run(capsys, ["verify-table2", "--d-range", "3..4", "--json"])
        assert code == 1, idx
    monkeypatch.undo()


def test_solver_commands_beyond_d12(capsys):
    code, out = run(capsys, ["verify-table2", "--d-range", "3..13", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert max(c["d"] for c in data["cells"]) == 13
    code, out = run(capsys, ["solve", "--morita", "i", "--etype", "a",
                             "--d", "13", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "unique"


@pytest.mark.parametrize("argv", [
    ["verify-table2", "--d-range", "3-6"],
    ["verify-table2", "--d-range", f"3..{solver.MAX_D + 1}"],
    ["verify-table2", "--d-range", "2..4"],
    ["verify-table2", "--d-range", "6..3"],
    ["solve", "--morita", "i", "--etype", "a", "--d", str(solver.MAX_D + 1)],
    ["solve", "--morita", "i", "--etype", "a", "--d", "2"],
    ["extensions", "--d", "2"],
    ["extensions", "--d", "2", "--census"],
    ["table1", "--d", "2", "--type", "a"],
])
def test_bad_solver_d_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --d" in err
    assert "Traceback" not in err


def test_pipeline_command(capsys):
    code, out = run(capsys, ["pipeline", "--group", "s5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["mismatches"] == []
    principal = next(b for b in data["blocks"] if b["is_principal"])
    assert principal["table2_row"].startswith("PGL(2,q) q=1 mod 4")


def test_scan_command(capsys, tmp_path):
    f = tmp_path / "d8.txt"
    f.write_text("(1 2 3 4)\n(1 3)\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("(1 2)(2 3)\n")
    code, out = run(capsys, ["scan", str(f), str(bad), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["scanned"] == 2
    assert data["results"][0]["order"] == 8
    assert "error" in data["results"][1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--morita", "bogus", "--etype", "a", "--d", "3"])
    assert exc.value.code == 2


def test_cap_order_env(monkeypatch, capsys):
    # a cap is "cannot compute": exit 3 and one line on stderr, no traceback
    monkeypatch.setenv("WORKBENCH_CAP_ORDER", "100")
    code = cli.main(["group", "--group", "psl27"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("workbench: CapExceeded: ")
    monkeypatch.delenv("WORKBENCH_CAP_ORDER")


def test_cap_order_flag_reaches_builtins(capsys):
    # --cap-order bounds a builtin group as it bounds a generator file
    code = cli.main(["group", "--group", "psl27", "--cap-order", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("workbench: CapExceeded: ")


@pytest.mark.parametrize("argv", [
    ["table1", "--d", "3", "--type", "a", "--cap-order", "8"],
    ["extensions", "--d", "3", "--census", "--cap-order", "8"],
    ["table1", "--d", "40", "--type", "a"],
    ["group", "--group", "c100000000"],
    ["group", "--group", "c100000000xc2"],
], ids=["table1-extension", "census-extension", "table1-huge-d", "huge-cyclic",
        "huge-cyclic-factor"])
def test_cap_order_is_checked_before_building(argv, capsys):
    # the cap refuses a group before any of its permutations is built, and
    # --cap-order reaches the dihedral frames of table1 and the census
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("workbench: CapExceeded: ")


@pytest.mark.parametrize("argv", [
    ["group", "--group", "nosuch"],
    ["group", "--group", "{tmp}/missing.txt"],
    ["group", "--group", "{tmp}/open_cycle.txt"],
    ["invmod", "--group", "s3", "--block", "7"],
    ["invmod", "--group", "s3", "--block", "x"],
    ["group", "--group", "c0"],
], ids=["unknown-builtin", "missing-file", "bad-cycle", "block-out-of-range",
        "block-not-an-index", "cyclic-order-0"])
def test_bad_group_input_is_usage_error(argv, capsys, tmp_path):
    # a bad name on the command line is exit 2 with one line, no traceback
    (tmp_path / "open_cycle.txt").write_text("(1 2\n")
    code = cli.main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("workbench: ")


# sha256 of `workbench chartab --json` stdout, run from the repository root
CHARTAB_SHA256 = {
    "pgl2_11": "ffaa4d80e3c5c215dd06888db8a88023c5a53de88236168bd5b515da65fd8753",
    "perfbench/groups/psl2_23.txt":
        "b23f560cf89db76a07096caecb6b9c585859e1c966c87fe10dd26d26e0033715",
}


@pytest.mark.parametrize("spec", sorted(CHARTAB_SHA256))
def test_chartab_json_digest(capsys, monkeypatch, spec):
    monkeypatch.chdir(GROUP_FILES.parents[1])
    code, out = run(capsys, ["chartab", "--group", spec, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTAB_SHA256[spec]
