"""Spans around the workbench's layer boundaries, recorded from outside.

`Tracer.install` replaces each boundary function named in `BOUNDARIES` by a
wrapper that records a span (name, start, end, parent, run id) in memory.
It replaces the function wherever a `workbench` module holds it, so names
imported with `from .x import f` are traced too.  Per-element helpers
(`perm.mul`, `perm.conj`, `PermGroup.idx`/`mul_idx`, the `BitMatrix` ops)
are never wrapped: they run millions of times per pass.

Counters are read from return values at the same boundaries, never from
code inside `src/`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# Boundary functions, as "<module>.<function>" or "<module>.<Class>.<method>".
BOUNDARIES = (
    "perm.generate",
    "groups.builtin_group",
    "perm.PermGroup.conjugacy_classes",
    "perm.PermGroup.sylow2",
    "perm.PermGroup.centralizer",
    "perm.PermGroup.extended_centralizer",
    "perm.PermGroup.involution_indices",
    "chartab.dixon_table",
    "chartab.CharacterTable.two_conjugacy_families",
    "blocks.block_partition",
    "blocks.block_idempotent_support",
    "blocks.real_defect_classes",
    "blocks.defect_couple",
    "pgroup.build_dihedral",
    "pgroup.build_extension",
    "pgroup.census_degree2_extensions",
    "pgroup.eclass_table",
    "pgroup.reality_pattern",
    "pgroup.classify_extension",
    "modrep.involution_perm_module",
    "modrep.block_cut",
    "modrep.block_projector",
    "modrep.class_sum_matrix",
    "modrep.summand_split",
    "modrep.endomorphism_basis",
    "modrep.group_summands",
    "modrep.hom_space",
    "modrep.meataxe_factors",
    "modrep.dimension_valuation_check",
    "meataxe.chop",
    "meataxe.group_constituents",
    "solver.solve",
    "solver.verify_table2",
    "pipeline.analyze_group",
    "pipeline.fit_morita_rows",
    "pipeline.scan_groups",
)

# Methods that compute once per instance and then return a memo; the memo
# lookups run once per element (`PermGroup.class_of` calls
# `conjugacy_classes` every time), so only the first call on each instance
# becomes a span.
FIRST_CALL_ONLY = ("perm.PermGroup.conjugacy_classes",)

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in BOUNDARIES))

# Size counters taken from return values: boundary -> (counter, size of result).
SIZE_COUNTERS = {
    "perm.generate": ("perm.order_sum", lambda g: g.order),
    "chartab.dixon_table": ("chartab.classes_sum", lambda t: t.k),
    "modrep.involution_perm_module": ("modrep.omega_dim_sum", lambda m: m.dim),
    "modrep.block_cut": ("modrep.cut_dim_sum", lambda m: m.dim),
    "modrep.summand_split": ("modrep.summands", len),
    "meataxe.chop": ("meataxe.factors", len),
    "solver.verify_table2": ("solver.cells", lambda r: len(r["cells"])),
}

COUNTERS = tuple(c for c, _ in SIZE_COUNTERS.values()) + (
    "modrep.route.gf2", "modrep.route.gf2f", "modrep.route.orbit")


def cut_route(cut) -> str:
    """Which `block_cut` route produced `cut`, told apart by its type."""
    if type(cut).__name__ == "GF2Module":
        return "modrep.route.gf2"
    return "modrep.route.orbit" if cut.mats is None else "modrep.route.gf2f"


def _first_call_only(traced, fn):
    seen = {}  # id(instance) -> weak reference, so a reused id is not mistaken

    def first_call(obj, *args, **kwargs):
        ref = seen.get(id(obj))
        if ref is not None and ref() is obj:
            return fn(obj, *args, **kwargs)
        result = traced(obj, *args, **kwargs)
        seen[id(obj)] = weakref.ref(obj)
        return result

    return first_call


def resolve(qualname: str):
    """(owner, attribute, function) for a boundary name; raises if it is gone."""
    parts = qualname.split(".")
    owner = importlib.import_module(f"workbench.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    fn = inspect.getattr_static(owner, parts[-1])
    if not inspect.isfunction(fn):
        raise TypeError(f"{qualname} is not a plain function")
    return owner, parts[-1], fn


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.counters = Counter()
        self.run_id = None
        self._stack = []
        self._patches = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = SIZE_COUNTERS.get(name)
        counters = self.counters
        route = name == "modrep.block_cut"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if size is not None:
                counters[size[0]] += size[1](result)
            if route:
                counters[cut_route(result)] += 1
            return result

        if name in FIRST_CALL_ONLY:
            traced = _first_call_only(traced, fn)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        for qualname in BOUNDARIES:
            owner, attr, fn = resolve(qualname)
            wrapper = self.wrap(qualname, fn)
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # names bound by `from .module import fn` elsewhere
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("workbench."):
                        continue
                    for other_attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, other_attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's children never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i]
            for i, (_name, start, end, _parent, _run) in enumerate(spans)]


def aggregate(spans) -> dict:
    """Self seconds and calls per boundary, per layer, and per (run id, layer)."""
    selfs = self_times(spans)
    per_fn = defaultdict(lambda: [0.0, 0])
    per_layer = defaultdict(float)
    per_run_layer = defaultdict(float)
    for (name, _s, _e, _p, run), own in zip(spans, selfs):
        per_fn[name][0] += own
        per_fn[name][1] += 1
        layer = name.split(".")[0]
        per_layer[layer] += own
        per_run_layer[(run, layer)] += own
    return {"functions": dict(per_fn), "layers": dict(per_layer),
            "run_layers": dict(per_run_layer)}
