#!/usr/bin/env python3
"""Workbench benchmark: two closed-loop workloads timed from outside.

    python3 perfbench/run.py --workload ladder|scan_table2 --seed N --seconds S --trace 0|1

One caller in one process runs a workload's items one after another and
checks every output against `perfbench/reference.json` (or, for the
extension census, against the package's own oracles).  The first pass runs
in a fresh process and pays for the `lru_cache`s filling; the later passes
are warm and run until `--seconds` have passed since the first one started,
at least one of them.  The seed orders the items of every pass and is
handed as `seed=` to the randomized MeatAxe and summand search; the reports
do not depend on it.

Workloads, and the layers each one stresses:

* ladder -- `pipeline.analyze_group` with modules on the reference ladder
  psl27, s5, a7, pgl2_11, PGL(2,13), M11, S7.  Mostly `modrep`/`meataxe`.
* scan_table2 -- two parts, in seed order, that never call `modrep`:
  - scan: `pipeline.scan_groups` over 15 generator files: `perm`,
    `chartab` and `blocks` on a few large groups.  PSL(2,17), PGL(2,17),
    PSL(2,19) and PSL(2,23) end in `FieldTooSmall` at the reference
    commit: they are timed to that verdict and counted as refused.
  - table2: `solver.verify_table2` for d=3..12 and, for d=3..6, the
    dihedral frame, the extension census, and every type's coset-class
    table and reality pattern: `solver`, `pgroup`, and `perm` on hundreds
    of tiny 2-groups.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` a separate traced run gives the per-layer ones (see
`spans.py`) and writes the spans to `.bench_out/` at the repository root.
Lines before the last one are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from clock import REFERENCE_KERNEL_S, TICK_S, Clock

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GROUP_DIR = HERE / "groups"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("ladder", "scan_table2")
LADDER_BUILTINS = ("psl27", "s5", "a7", "pgl2_11")
LADDER_FILES = ("pgl2_13", "M11", "S7")
LADDER = LADDER_BUILTINS + LADDER_FILES
SCAN = ("psl2_9", "psl2_11", "psl2_13", "pgl2_11", "pgl2_13", "S6", "s5xs3",
        "psl2_5xpsl2_5", "a7", "S7", "M11",
        "psl2_17", "pgl2_17", "psl2_19", "psl2_23")
TABLE2_D = tuple(range(3, 13))
PGROUP_D = (3, 4, 5, 6)
SETUP_PROBES = 10

END_TO_END = {"setup_s": "s", "cold_pass_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_GROUP_LAYERS = ("modrep", "meataxe", "chartab")

wb = None  # the workbench modules, once `load_workbench` has run


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# -- set-up ------------------------------------------------------------------

def load_workbench():
    """Import the workbench from this checkout's `src/`, never from elsewhere."""
    global wb
    if not (SRC / "workbench" / "__init__.py").is_file():
        raise SetupError(f"no workbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workbench
    from workbench import (groups, perm, pgroup, pipeline, solver,  # noqa: F401
                           blocks, chartab, meataxe, modrep)
    if Path(workbench.__file__).resolve().parent != (SRC / "workbench").resolve():
        raise SetupError(f"imported workbench from {workbench.__file__}")
    wb = sys.modules["workbench"]
    return wb


@dataclass
class GroupFile:
    name: str
    path: Path
    order: int
    degree: int


def read_group_file(name: str) -> GroupFile:
    """Parse the header of a generator file and check it against its body."""
    path = GROUP_DIR / f"{name}.txt"
    header, points = {}, 0
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif line.strip():
            digits = line.replace("(", " ").replace(")", " ").split()
            points = max([points] + [int(x) for x in digits])
    if "order" not in header or "degree" not in header or "source" not in header:
        raise SetupError(f"{path}: header needs source, order and degree")
    group = GroupFile(name, path, int(header["order"]), int(header["degree"]))
    if points != group.degree:
        raise SetupError(f"{path}: points go up to {points}, header says {group.degree}")
    return group


@dataclass
class Env:
    workload: str
    seed: int
    reference: dict
    files: dict       # name -> GroupFile
    gens: dict        # ladder file name -> generators
    clock: Clock


def setup(workload: str, seed: int, with_reference: bool = True) -> Env:
    load_workbench()
    reference = json.loads(REFERENCE.read_text()) if with_reference else {}
    names = {"ladder": LADDER_FILES, "scan_table2": SCAN}[workload]
    files = {n: read_group_file(n) for n in names}
    gens = {}
    if workload == "ladder":
        gens = {n: wb.perm.read_generator_file(str(files[n].path)) for n in names}
    return Env(workload, seed, reference, files, gens, Clock())


# -- checks ------------------------------------------------------------------

def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def table2_summary(report: dict) -> dict:
    cells = report["cells"]
    return {"ok": report["ok"], "populated": report["populated"],
            "excluded": report["excluded"], "cells": len(cells),
            "status": dict(sorted(Counter(c["status"] for c in cells).items())),
            "sha256": digest(cells)}


def scan_entry(entry: dict) -> dict:
    """A scan entry without its path, which depends on the checkout."""
    return json.loads(canonical({k: v for k, v in entry.items() if k != "path"}))


def check_scan_entry(got: dict, want: dict, order: int):
    """None if `got` is right, else the reason.

    A file that ended in an error at the reference commit may later get a
    report; that report is accepted when its group order is right.
    """
    if got == want:
        return None
    if "error" in want and "error" not in got and got.get("order") == order:
        return None
    return f"scan entry {got} != reference {want}"


# -- workloads ---------------------------------------------------------------

@dataclass
class Outcome:
    item: str
    seconds: float                # raw seconds of the call that produced it
    failure: str | None = None    # why the item failed, None if it is right
    error: str | None = None      # exception class, for raised or refused items
    refused: bool = False         # the reference verdict is itself an error


def last_call_seconds(env: Env) -> float:
    return env.clock.raw(*env.clock.segments[-1])


def run_item(env: Env, name: str, fn, check) -> Outcome:
    """Time `fn()` on the clock, then check its output outside the timing."""
    try:
        out = env.clock.call(fn)
    except Exception as exc:  # an item that raises counts as failed
        return Outcome(name, last_call_seconds(env),
                       f"{type(exc).__name__}: {exc}", type(exc).__name__)
    return Outcome(name, last_call_seconds(env), check(out))


def analyze_ladder_group(env: Env, name: str, seed: int) -> dict:
    if name in env.gens:
        group = wb.perm.generate(env.gens[name])
    else:
        group = wb.groups.builtin_group(name)
    return wb.pipeline.analyze_group(group, name=name, seed=seed)


def ladder_item(env: Env, name: str) -> Outcome:
    ref = env.reference["ladder"][name]

    def analyze():
        return analyze_ladder_group(env, name, env.seed)

    def check(report):
        if report.get("order") != ref["order"]:
            return f"order {report.get('order')} != {ref['order']}"
        if digest(report) != ref["sha256"]:
            return f"report digest differs; mismatches {report.get('mismatches')}"
        return None

    return run_item(env, name, analyze, check)


def ladder_pass(env: Env, rng: random.Random, tracer=None) -> list:
    order = list(LADDER)
    rng.shuffle(order)
    outcomes = []
    for name in order:
        if tracer is not None:
            tracer.run_id = name
        outcomes.append(ladder_item(env, name))
    return outcomes


def scan_pass(env: Env, rng: random.Random, tracer=None) -> list:
    ref = env.reference["scan"]
    order = list(SCAN)
    rng.shuffle(order)
    paths = [str(env.files[n].path) for n in order]
    if tracer is not None:
        tracer.run_id = "scan"
    try:
        entries = env.clock.call(lambda: wb.pipeline.scan_groups(paths))
    except Exception as exc:  # the whole scan raised: every file failed
        took = last_call_seconds(env)
        return [Outcome(n, took, f"{type(exc).__name__}: {exc}", type(exc).__name__)
                for n in order]
    took = last_call_seconds(env)
    by_name = {Path(e["path"]).stem: scan_entry(e) for e in entries}
    outcomes = []
    for name in order:
        got = by_name.get(name)
        if got is None:
            outcomes.append(Outcome(name, took, "no scan entry"))
            continue
        failure = check_scan_entry(got, ref[name], env.files[name].order)
        error = got["error"].partition(":")[0] if "error" in got else None
        outcomes.append(Outcome(name, took, failure, error,
                                refused=error is not None and failure is None))
    return outcomes


def census_types(d: int) -> list:
    return ["a", "b", "c", "d"] + (["e"] if d >= 4 else [])


def table2_pass(env: Env, rng: random.Random, tracer=None) -> list:
    pg = wb.pgroup
    groups = [[("verify_table2", lambda: wb.solver.verify_table2(d_values=TABLE2_D),
                lambda r: None if table2_summary(r) == env.reference["table2"]
                else f"verify_table2 summary {table2_summary(r)}")]]
    frames = {}
    for d in PGROUP_D:
        def census(d=d):
            frames[d] = pg.build_dihedral(d)
            return pg.census_degree2_extensions(frames[d])

        def check_census(got, d=d):
            types = [ty for ty, _fp in got]
            return None if types == census_types(d) else f"census types {types}"

        def classes(d, ty):
            ext = pg.build_extension(frames[d], ty)
            return pg.eclass_table(ext), pg.reality_pattern(ext)

        def check_classes(got, d, ty):
            rows, pattern = got
            want = [(label, inv, cname) for label, _spec, inv, cname
                    in pg.expected_table1_rows(d, ty)]
            if [(label, inv, cname) for label, inv, cname, _size in rows] != want:
                return f"coset-class table d={d} type {ty}"
            if pattern != pg.expected_reality(d, ty):
                return f"reality pattern d={d} type {ty}"
            return None

        types = census_types(d)
        rng.shuffle(types)
        groups.append([(f"census d={d}", census, check_census)] + [
            (f"d={d} type {ty}", lambda d=d, ty=ty: classes(d, ty),
             lambda got, d=d, ty=ty: check_classes(got, d, ty)) for ty in types])
    rng.shuffle(groups)
    outcomes = []
    for group in groups:
        for name, fn, check in group:
            if tracer is not None:
                tracer.run_id = name
            outcomes.append(run_item(env, name, fn, check))
    return outcomes


def scan_table2_pass(env: Env, rng: random.Random, tracer=None) -> list:
    parts = [scan_pass, table2_pass]
    rng.shuffle(parts)
    return [o for part in parts for o in part(env, rng, tracer)]


PASSES = {"ladder": ladder_pass, "scan_table2": scan_table2_pass}


# -- measurement -------------------------------------------------------------

@dataclass
class Pass:
    raw: float        # seconds spent in workbench calls
    seconds: float    # the same in reference seconds (see clock.py)
    outcomes: list


def timed_pass(env: Env, rng: random.Random, tracer=None) -> Pass:
    first = len(env.clock.segments)
    if tracer is not None:
        tracer.install()
    try:
        # no kernel samples inside a traced pass, where spans would hold them
        with env.clock.ticking(None if tracer is not None else TICK_S):
            outcomes = PASSES[env.workload](env, rng, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw, ref = env.clock.totals(first)
    return Pass(raw, ref, outcomes)


def probe_command(args, probe: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--probe", probe]


def probe_setup(args, clock: Clock) -> list:
    """(raw, reference) seconds for fresh interpreters to get through
    `setup` and exit, with a kernel sample before and after each."""
    cmd = probe_command(args, "setup")
    first = len(clock.segments)
    for _ in range(SETUP_PROBES):
        clock.sample()
        # a blocking wait: `wait(timeout=...)` polls, which rounds the times
        code = clock.call(lambda: subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL).wait())
        if code != 0:
            raise SetupError(f"set-up in a fresh process exited with {code}")
    clock.sample()
    return [(clock.raw(start, end), clock.raw(start, end) * clock.scale(start, end))
            for start, end in clock.segments[first:]]


def cold_pass_elsewhere(args) -> dict:
    """The first pass of a fresh process, as `--probe cold` reports it."""
    done = subprocess.run(probe_command(args, "cold"), cwd=ROOT, check=True,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def tail_percentile(samples: list):
    """(p, value) for the highest whole percentile with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    ranked = sorted(samples)
    return p, ranked[min(n - 1, max(0, -(-p * n // 100) - 1))]


def per_layer_names() -> list:
    from spans import BOUNDARIES, COUNTERS, LAYERS
    names = []
    for fn in BOUNDARIES:
        names += [f"{fn}.self_s", f"{fn}.calls"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{g}.{layer}.self_s" for g in LADDER for layer in PER_GROUP_LAYERS]
    names += list(COUNTERS) + ["errors.FieldTooSmall", "errors.total",
                               "trace.overhead_frac"]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "frac" if name == "trace.overhead_frac" else "count"


def per_pass(total, passes: int):
    value = total / passes
    return int(value) if isinstance(total, int) and value == int(value) else value


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics per traced pass, in the order of `per_layer_names`."""
    from spans import BOUNDARIES, COUNTERS, LAYERS, aggregate
    k = len(traced)
    agg = aggregate(tracer.spans)
    values = {}
    for fn in BOUNDARIES:
        own, calls = agg["functions"].get(fn, (0.0, 0))
        values[f"{fn}.self_s"] = own / k
        values[f"{fn}.calls"] = per_pass(calls, k)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = agg["layers"].get(layer, 0.0) / k
    for g in LADDER:
        for layer in PER_GROUP_LAYERS:
            values[f"{g}.{layer}.self_s"] = agg["run_layers"].get((g, layer), 0.0) / k
    for name in COUNTERS:
        values[name] = per_pass(tracer.counters[name], k)
    errors = Counter(o.error for p in traced for o in p.outcomes if o.error)
    values["errors.FieldTooSmall"] = per_pass(errors["FieldTooSmall"], k)
    values["errors.total"] = per_pass(sum(errors.values()), k)
    base = statistics.median(p.seconds for p in untraced)
    values["trace.overhead_frac"] = statistics.median(p.seconds for p in traced) / base - 1
    return values


def write_spans(args, tracer, traced: list, metrics: dict):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "machine": machine_info(), "traced_passes": len(traced),
                   "metrics": metrics,
                   "span_fields": ["name", "start", "end", "parent", "run"],
                   "spans": tracer.spans}, fh)
    return path


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def measure(args, env: Env, setup_own: float):
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    window_start = perf_counter()
    cold = timed_pass(env, rng)
    # a cold pass happens once per process: take more of them from fresh
    # processes while they fit in half the measuring time
    colds = [{"raw": cold.raw, "seconds": cold.seconds, "attempted": 0, "failed": 0}]
    while sum(c["raw"] for c in colds) < args.seconds / 2:
        colds.append(cold_pass_elsewhere(args))
    warm, traced = [], []
    while True:
        warm.append(timed_pass(env, rng))
        if tracer is not None:
            traced.append(timed_pass(env, rng, tracer))
        if perf_counter() - window_start >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = probe_setup(args, env.clock)
    return {"probes": probes, "setup_own": setup_own, "colds": colds, "warm": warm,
            "traced": traced, "passes": [cold] + warm + traced, "rss_mb": rss_mb,
            "tracer": tracer, "clock": env.clock}


def report(args, m: dict) -> dict:
    outcomes = [o for p in m["passes"] for o in p.outcomes]
    attempted = len(outcomes) + sum(c["attempted"] for c in m["colds"])
    failed = [o for o in outcomes if o.failure is not None]
    failed_elsewhere = sum(c["failed"] for c in m["colds"])
    refused = [o for o in outcomes if o.refused]
    warm = [p.seconds for p in m["warm"]]
    clock = m["clock"]
    setup_s = statistics.median(ref for _raw, ref in m["probes"])
    cold_s = statistics.median(c["seconds"] for c in m["colds"])
    info = machine_info()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={info['python']} nproc={info['nproc']} "
          f"machine={info['machine']}")
    print(f"  times in reference seconds (clock.py), raw seconds in brackets; "
          f"kernel median {clock.kernel_median() * 1000:.3f} ms over "
          f"{len(clock.samples)} samples, reference {REFERENCE_KERNEL_S * 1000:.3f} ms")
    print(f"  setup_s      {setup_s:.4f} s   "
          f"[{statistics.median(raw for raw, _ref in m['probes']):.4f}]   median of "
          f"{len(m['probes'])} fresh processes (this one: {m['setup_own']:.4f} s raw "
          f"after interpreter start)")
    print(f"  cold_pass_s  {cold_s:.4f} s   "
          f"[{statistics.median(c['raw'] for c in m['colds']):.4f}]   median of "
          f"{len(m['colds'])} first passes of fresh processes")
    tail = tail_percentile(warm)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 f"max {max(warm):.4f} s (a tail percentile needs >= 11 passes)")
    print(f"  pass_s       {statistics.median(warm):.4f} s   "
          f"[{statistics.median(p.raw for p in m['warm']):.4f}]   median, {tail_text}, "
          f"n={len(warm)} warm passes")
    print(f"  peak_rss_mb  {m['rss_mb']:.1f} MB")
    n_failed = len(failed) + failed_elsewhere
    print(f"  failed_frac  {n_failed / attempted:.4f}   {n_failed}/{attempted} items "
          f"failed; {len(refused)}/{len(outcomes)} refused with the reference verdict")
    items = {}
    for p in m["warm"]:
        for o in p.outcomes:
            items.setdefault(o.item, []).append(o.seconds)
    if args.workload == "ladder":
        print("  warm item medians: " + ", ".join(
            f"{n} {statistics.median(items[n]):.3f} s" for n in LADDER if n in items))
    for o in failed[:10]:
        print(f"  FAILED {o.item}: {o.failure}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(m["tracer"], m["traced"], m["warm"])
        from spans import LAYERS
        total = statistics.mean(p.raw for p in m["traced"])
        for layer in LAYERS:
            share = metrics[f"{layer}.self_s"] / total
            print(f"  {layer:<9} self {metrics[f'{layer}.self_s']:.4f} s "
                  f"({share:.1%} of a traced pass)")
        print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f}")
        path = write_spans(args, m["tracer"], m["traced"], metrics)
        print(f"  spans written to {path.relative_to(ROOT)}")
        out = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {"setup_s": setup_s, "cold_pass_s": cold_s,
                  "pass_s": statistics.median(warm), "peak_rss_mb": m["rss_mb"]}
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
            "metrics": out}


def build_reference(seeds=(0, 1, 2, 3)) -> dict:
    """Reference outputs of the workbench in this checkout.

    Every ladder report must be byte-identical across `seeds`."""
    env = setup("ladder", seeds[0], with_reference=False)
    ladder = {}
    for name in LADDER:
        found = set()
        for seed in seeds:
            rep = analyze_ladder_group(env, name, seed)
            if rep["mismatches"]:
                raise SystemExit(f"{name}: mismatches {rep['mismatches']}")
            found.add(digest(rep))
        if len(found) != 1:
            raise SystemExit(f"{name}: report depends on the seed")
        ladder[name] = {"order": rep["order"], "sha256": found.pop()}
        print(f"ladder {name}: order {rep['order']}", flush=True)
    files = [read_group_file(n) for n in SCAN]
    entries = wb.pipeline.scan_groups([str(f.path) for f in files])
    scan = {}
    for f, entry in zip(files, entries):
        got = scan_entry(entry)
        if "error" not in got and got["order"] != f.order:
            raise SystemExit(f"{f.name}: order {got['order']} != {f.order}")
        scan[f.name] = got
    t2 = wb.solver.verify_table2(d_values=TABLE2_D)
    if not t2["ok"]:
        raise SystemExit("verify_table2 is not ok")
    return {"seeds_checked": list(seeds), "python": platform.python_version(),
            "ladder": ladder, "scan": scan, "table2": table2_summary(t2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "cold"),
                    help="only set up, or only run a cold pass and print its times; "
                         "used to time these in fresh processes")
    args = ap.parse_args(argv)
    try:
        env = setup(args.workload, args.seed)
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.probe == "setup":
        return 0
    if args.probe == "cold":
        cold = timed_pass(env, random.Random(args.seed))
        print(json.dumps({"raw": cold.raw, "seconds": cold.seconds,
                          "attempted": len(cold.outcomes),
                          "failed": sum(o.failure is not None for o in cold.outcomes)}))
        return 0
    result = report(args, measure(args, env, perf_counter() - T_START))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
