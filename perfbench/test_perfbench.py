"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

run.load_workbench()


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tree = [["m.root", 0.0, 10.0, -1, "x"],
            ["m.a", 1.0, 4.0, 0, "x"],
            ["n.b", 2.0, 3.0, 1, "x"],
            ["n.c", 5.0, 9.0, 0, "y"]]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    agg = spans.aggregate(tree)
    assert agg["functions"]["m.a"] == [2.0, 1]
    assert agg["layers"] == {"m": 5.0, "n": 5.0}
    assert agg["run_layers"] == {("x", "m"): 5.0, ("x", "n"): 1.0, ("y", "n"): 4.0}


def test_tracer_records_parents_and_counters():
    tracer = spans.Tracer()
    ns = {}
    ns["inner"] = tracer.wrap("meataxe.chop", lambda: [1, 2, 3])
    ns["outer"] = tracer.wrap("modrep.meataxe_factors", lambda: ns["inner"]())
    tracer.run_id = "g"
    assert ns["outer"]() == [1, 2, 3]
    (outer, s0, e0, p0, r0), (inner, s1, e1, p1, r1) = tracer.spans
    assert (outer, p0, inner, p1, r1) == ("modrep.meataxe_factors", -1, "meataxe.chop", 0, "g")
    assert s0 <= s1 <= e1 <= e0
    assert tracer.counters["meataxe.factors"] == 3


def test_every_boundary_resolves():
    for name in spans.BOUNDARIES:
        spans.resolve(name)
    for name in spans.SIZE_COUNTERS:
        assert name in spans.BOUNDARIES


def test_install_patches_names_imported_by_name():
    wb = run.wb
    originals = (wb.pipeline.dixon_table, wb.pipeline.builtin_group,
                 wb.modrep.chop, wb.modrep.group_constituents,
                 wb.perm.PermGroup.centralizer)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = (wb.pipeline.dixon_table, wb.pipeline.builtin_group,
                   wb.modrep.chop, wb.modrep.group_constituents,
                   wb.perm.PermGroup.centralizer)
        assert all(p is not o for p, o in zip(patched, originals))
        assert wb.chartab.dixon_table is wb.pipeline.dixon_table
        assert wb.meataxe.chop is wb.modrep.chop
    finally:
        tracer.uninstall()
    assert (wb.pipeline.dixon_table, wb.pipeline.builtin_group, wb.modrep.chop,
            wb.modrep.group_constituents, wb.perm.PermGroup.centralizer) == originals


def test_traced_pipeline_records_layers():
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.wb.pipeline.analyze_group("psl27", seed=0)
    finally:
        tracer.uninstall()
    traced = run.Pass(1.0, 1.0, [run.Outcome("psl27", 1.0)])
    metrics = run.layer_metrics(tracer, [traced], [traced])
    assert list(metrics) == run.per_layer_names()
    agg = spans.aggregate(tracer.spans)
    assert agg["functions"]["pipeline.analyze_group"][1] == 1
    assert agg["functions"]["perm.PermGroup.conjugacy_classes"][1] >= 1
    for layer in ("perm", "chartab", "blocks", "modrep", "meataxe", "solver"):
        assert agg["layers"][layer] > 0, layer
    assert tracer.counters["modrep.omega_dim_sum"] > 0
    assert sum(tracer.counters[f"modrep.route.{r}"] for r in ("gf2", "gf2f", "orbit")) > 0


def test_changed_reference_digest_fails_the_item():
    env = run.setup("ladder", 0)
    assert run.ladder_item(env, "psl27").failure is None
    env.reference = copy.deepcopy(env.reference)
    env.reference["ladder"]["psl27"]["sha256"] = "0" * 64
    outcome = run.ladder_item(env, "psl27")
    assert outcome.failure is not None and "digest" in outcome.failure


def test_scan_entry_check():
    refused = {"error": "FieldTooSmall: no primitive polynomial pinned for f=24"}
    assert run.check_scan_entry(dict(refused), refused, 2448) is None
    # a later program that answers instead of refusing passes on the right order
    assert run.check_scan_entry({"order": 2448, "blocks": 5}, refused, 2448) is None
    assert run.check_scan_entry({"order": 2447, "blocks": 5}, refused, 2448)
    assert run.check_scan_entry({"order": 660, "blocks": 3},
                                {"order": 660, "blocks": 4}, 660)


@pytest.mark.parametrize("name", sorted(set(run.SCAN) | set(run.LADDER_FILES)))
def test_group_file_order_matches_header(name):
    group = run.read_group_file(name)
    gens = run.wb.perm.read_generator_file(str(group.path))
    assert run.wb.perm.generate(gens).order == group.order


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_clock_scales_each_segment_by_the_kernel_samples_around_it():
    c = clock.Clock()
    ref = clock.REFERENCE_KERNEL_S
    c.samples = [(0.0, 0.5, 2 * ref), (10.0, 10.5, 2 * ref),
                 (11.25, 11.5, ref / 2), (20.0, 20.5, ref)]
    c.segments = [(1.0, 3.0), (10.75, 12.0)]
    raw, scaled = c.totals()
    # 2 s at half the reference speed; then 1 s (the sample inside it taken
    # out) at the median of the speeds 1/2, 2 and 1 measured around it
    assert raw == pytest.approx(3.0)
    assert scaled == pytest.approx(2 * 0.5 + 1 * 1)


def test_clock_samples_inside_a_long_call():
    c = clock.Clock()

    def busy():
        stop = perf_counter() + 3 * clock.TICK_S
        while perf_counter() < stop:
            pass

    with c.ticking():
        c.call(busy)
    start, end = c.segments[0]
    inside = [(s, e) for s, e, _k in c.samples if start < s and e < end]
    assert len(inside) >= 2
    assert c.raw(start, end) == pytest.approx((end - start) - sum(e - s for s, e in inside))


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    p, value = run.tail_percentile(list(range(100)))
    assert p == 90 and value == 89


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ladder", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
