"""Span arithmetic for the traced run: self time and per-name totals.

A span is (id, name, start, end, parent, op, error).  `parent` is the id of
the span that caused it, or -1.  Children may run on other threads and
overlap each other, so a parent's self time subtracts the *union* of its
children's intervals: two overlapping pool-thread children are not counted
twice, and time covered by either is not self time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import NamedTuple

# The wrapped functions, named <module>.<function> after the slipchan module
# that defines them.  Each gets calls, self_s, total_s and errors metrics.
LAYERS = (
    "cli.main",
    "eigensolver.solve_details",
    "modes.enumerate_spectrum",
    "modes.build_mode",
    "fields.ScalarField.product",
    "fields.PlanarField.inner",
    "fields.PlanarField.from_mode",
    "helmholtz.convect",
    "helmholtz.leray_project",
    "galerkin.assemble",
    "galerkin.integrate",
    "verify.fd_oracle_eigs",
    "verify.suite_modes",
    "verify.suite_helmholtz",
    "verify.suite_oracle",
)
LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"),
                ("errors", "count"))
# Metrics derived from spans and from values the layers return; each
# ratio is 0 on a workload that never reaches its layer.
DERIVED = (
    ("cli.import_s", "s"),
    ("cli.modules_loaded", "count"),
    ("eigensolver.solve_details.us_per_call", "us"),
    ("modes.entries_used_ratio", "ratio"),
    ("fields.from_mode_per_mode", "ratio"),
    ("helmholtz.convect_useful_ratio", "ratio"),
    ("galerkin.tensor_density", "ratio"),
    ("galerkin.step_us", "us"),
    ("verify.oracle_parallelism", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: bool


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, errors, self_s and total_s.

    total_s sums the durations of the outermost spans of each name (a span
    nested inside another of the same name is already covered by it).
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["errors"] += int(s.error)
        row["self_s"] += own[s.id]
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            row["total_s"] += s.end - s.start
    return dict(out)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.{name}": unit
             for layer in LAYERS for name, unit in LAYER_FIELDS}
    units.update(DERIVED)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw_spans: list, facts: dict, entries_consumed: int) -> dict:
    """Per-layer metrics of one traced operation (trace.overhead_s excepted,
    which compares whole runs)."""
    spans = [Span(*s) for s in raw_spans]
    agg = aggregate(spans)
    empty = {name: 0 for name, _ in LAYER_FIELDS}
    rows = {layer: agg.get(layer, empty) for layer in LAYERS}
    out = {f"{layer}.{name}": float(rows[layer][name])
           for layer in LAYERS for name, _ in LAYER_FIELDS}
    solve = rows["eigensolver.solve_details"]
    out.update({
        "cli.import_s": facts["import_s"],
        "cli.modules_loaded": facts["modules_loaded"],
        "eigensolver.solve_details.us_per_call":
            1e6 * _ratio(solve["self_s"], solve["calls"]),
        "modes.entries_used_ratio":
            _ratio(entries_consumed, facts.get("entries_enumerated", 0)),
        "fields.from_mode_per_mode": _ratio(
            rows["fields.PlanarField.from_mode"]["calls"],
            rows["modes.build_mode"]["calls"]),
        "helmholtz.convect_useful_ratio": _ratio(
            facts.get("pairs_useful", 0), facts.get("pairs_convected", 0)),
        "galerkin.tensor_density": _ratio(
            facts.get("tensor_nonzero", 0), facts.get("tensor_entries", 0)),
        "galerkin.step_us": 1e6 * _ratio(
            rows["galerkin.integrate"]["self_s"], facts.get("steps", 0)),
        "verify.oracle_parallelism": _ratio(
            rows["verify.fd_oracle_eigs"]["total_s"],
            rows["verify.suite_oracle"]["total_s"]),
        "trace.spans": float(len(spans)),
    })
    return out


def median_metrics(per_op: list[dict]) -> dict:
    return {name: statistics.median(op[name] for op in per_op)
            for name in per_op[0]}
