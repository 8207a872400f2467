"""Per-layer metrics derived from the span tree of a traced run.

Each metric describes one set-up plus one operation: additive
quantities are the traced set-up's total plus the mean over the traced
operations; sizes (nnz, dense megabytes, n_red) are maxima; ratios are
formed from the combined totals.  Seconds are inclusive span times
unless the name says ``self`` (a span's duration minus its children's).
"""

from __future__ import annotations

from tracer import outermost, self_seconds, span_seconds, total_count, walk

# name -> (unit, spans the metric needs).  "x#" needs span x and the
# counts its hook records, "x" only the span.
PER_LAYER = {
    "gauge.project_s": ("s", ("gauge.project",)),
    "gauge.project_calls": ("count", ("gauge.project#",)),
    "gauge.project_dense_mb": ("MB", ("gauge.project#",)),
    "eigen.sparse_solve_s": ("s", ("eigen.sparse_solve",)),
    "eigen.sparse_solves": ("count", ("eigen.sparse_solve",)),
    "eigen.shift_factor_s": ("s", ("eigen.shift_factor",)),
    "eigen.shift_factor_nnz": ("count", ("eigen.shift_factor",)),
    "eigen.lanczos_s": ("s", ("eigen.sparse_solve", "eigen.shift_factor")),
    "eigen.opinv_applies": ("count", ("eigen.shift_factor",)),
    "eigen.ritz_kept_ratio": ("ratio", ("eigen.sparse_solve#",)),
    "eigen.mass_factor_s": ("s", ("eigen.mass_factor",)),
    "eigen.mass_factors": ("count", ("eigen.mass_factor",)),
    "eigen.mass_factor_nnz": ("count", ("eigen.mass_factor#",)),
    "eigen.mass_solve_s": ("s", ("eigen.mass_solve",)),
    "eigen.mass_solve_cols": ("count", ("eigen.mass_solve#",)),
    "rb.snapshots_s": ("s", ("rb.snapshots",)),
    "rb.pod_s": ("s", ("rb.pod",)),
    "rb.greedy_s": ("s", ("rb.greedy",)),
    "rb.greedy_self_s": ("s", ("rb.greedy",)),
    "rb.greedy_iterations": ("count", ("rb.greedy#",)),
    "rb.greedy_appends": ("count", ("rb.greedy#",)),
    "rb.greedy_snapshot_yield": ("ratio", ("rb.greedy#", "eigen.sparse_solve",
                                           "eigen.dense_solve#")),
    "rb.n_red": ("count", ("rb.build_basis#",)),
    "gauge.cotree_system_s": ("s", ("gauge.cotree_system",)),
    "gauge.cotree_system_calls": ("count", ("gauge.cotree_system",)),
    "eigen.dense_solve_s": ("s", ("eigen.dense_solve",)),
    "eigen.dense_solves": ("count", ("eigen.dense_solve",)),
    "mesh.build_s": ("s", ("mesh.build",)),
    "assembly.assemble_s": ("s", ("assembly.assemble",)),
    "assembly.pattern_s": ("s", ("assembly.pattern",)),
    "gauge.tree_s": ("s", ("gauge.tree",)),
    "assembly.interpolate_s": ("s", ("assembly.interpolate",)),
    "assembly.interpolate_calls": ("count", ("assembly.interpolate",)),
    "tracking.track_s": ("s", ("tracking.track",)),
    "tracking.self_s": ("s", ("tracking.track",)),
    "tracking.solves": ("count", ("tracking.track", "eigen.sparse_solve",
                                  "eigen.dense_solve")),
    "tracking.grid_points": ("count", ("tracking.track#",)),
    "tracking.bisections": ("count", ("tracking.track#",)),
    "tracking.accept_ratio": ("ratio", ("tracking.track#", "eigen.sparse_solve",
                                        "eigen.dense_solve")),
    "trace.op_traced_s": ("s", ()),
    "trace.op_untraced_s": ("s", ()),
    "trace.overhead_ratio": ("ratio", ()),
    "trace.layer_self_s": ("s", ()),
    "trace.coverage_ratio": ("ratio", ()),
}

_SOLVES = ("eigen.sparse_solve", "eigen.dense_solve")


def _count_spans(root, name) -> int:
    return sum(1 for _ in outermost(root, name))


def _snapshot_solves(root, n_cotree) -> int:
    """Snapshot solves under the greedy: sparse solves (mixed gauge) or
    dense solves of the full cotree pencil (classical gauge)."""
    n = 0
    for greedy in outermost(root, "rb.greedy"):
        for span in walk(greedy):
            if span.name == "eigen.sparse_solve":
                n += 1
            elif span.name == "eigen.dense_solve" and span.counts.get("dim") == n_cotree:
                n += 1
    return n


def _tracking_solves(root) -> int:
    return sum(_count_spans(track, name)
               for track in outermost(root, "tracking.track") for name in _SOLVES)


def _sums(root, n_cotree) -> dict:
    """Additive quantities of one root span (a set-up or an operation)."""
    return {
        "gauge.project_s": span_seconds(root, "gauge.project"),
        "gauge.project_calls": total_count(root, "gauge.project", "calls"),
        "eigen.sparse_solve_s": span_seconds(root, "eigen.sparse_solve"),
        "eigen.sparse_solves": _count_spans(root, "eigen.sparse_solve"),
        "eigen.shift_factor_s": span_seconds(root, "eigen.shift_factor"),
        "eigen.lanczos_s": self_seconds(root, "eigen.sparse_solve"),
        "eigen.opinv_applies": total_count(root, "eigen.shift_factor", "applies"),
        "ritz_kept": total_count(root, "eigen.sparse_solve", "kept"),
        "ritz_requested": total_count(root, "eigen.sparse_solve", "requested"),
        "eigen.mass_factor_s": span_seconds(root, "eigen.mass_factor"),
        "eigen.mass_factors": _count_spans(root, "eigen.mass_factor"),
        "eigen.mass_solve_s": span_seconds(root, "eigen.mass_solve"),
        "eigen.mass_solve_cols": total_count(root, "eigen.mass_solve", "cols"),
        "rb.snapshots_s": span_seconds(root, "rb.snapshots"),
        "rb.pod_s": span_seconds(root, "rb.pod"),
        "rb.greedy_s": span_seconds(root, "rb.greedy"),
        "rb.greedy_self_s": self_seconds(root, "rb.greedy"),
        "rb.greedy_iterations": total_count(root, "rb.greedy", "iterations"),
        "rb.greedy_appends": total_count(root, "rb.greedy", "appends"),
        "greedy_snapshots": _snapshot_solves(root, n_cotree),
        "gauge.cotree_system_s": span_seconds(root, "gauge.cotree_system"),
        "gauge.cotree_system_calls": _count_spans(root, "gauge.cotree_system"),
        "eigen.dense_solve_s": span_seconds(root, "eigen.dense_solve"),
        "eigen.dense_solves": _count_spans(root, "eigen.dense_solve"),
        "mesh.build_s": span_seconds(root, "mesh.build"),
        "assembly.assemble_s": span_seconds(root, "assembly.assemble"),
        "assembly.pattern_s": span_seconds(root, "assembly.pattern"),
        "gauge.tree_s": span_seconds(root, "gauge.tree"),
        "assembly.interpolate_s": span_seconds(root, "assembly.interpolate"),
        "assembly.interpolate_calls": _count_spans(root, "assembly.interpolate"),
        "tracking.track_s": span_seconds(root, "tracking.track"),
        "tracking.self_s": self_seconds(root, "tracking.track"),
        "tracking.solves": _tracking_solves(root),
        "tracking.grid_points": total_count(root, "tracking.track", "grid_points"),
        "tracking.bisections": total_count(root, "tracking.track", "bisections"),
        "tracking.passes": _count_spans(root, "tracking.track"),
    }


def _maxima(roots) -> dict:
    def peak(name, key):
        return max((s.counts.get(key, 0) for r in roots for s in walk(r)
                    if s.name == name), default=0)

    return {
        "gauge.project_dense_mb": peak("gauge.project", "dense_mb"),
        "eigen.shift_factor_nnz": peak("eigen.shift_factor", "nnz"),
        "eigen.mass_factor_nnz": peak("eigen.mass_factor", "nnz"),
        "rb.n_red": peak("rb.build_basis", "n_red"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(setup_root, op_roots, n_cotree) -> dict:
    """Per-layer values for one set-up plus one (mean) operation."""
    setup = _sums(setup_root, n_cotree)
    ops = [_sums(r, n_cotree) for r in op_roots]
    total = {k: setup[k] + sum(o[k] for o in ops) / len(ops) for k in setup}
    out = {k: v for k, v in total.items() if k in PER_LAYER}
    out.update(_maxima([setup_root, *op_roots]))
    out["eigen.ritz_kept_ratio"] = _ratio(total["ritz_kept"], total["ritz_requested"])
    out["rb.greedy_snapshot_yield"] = _ratio(total["rb.greedy_appends"],
                                             total["greedy_snapshots"])
    passes = total["tracking.passes"]
    out["tracking.accept_ratio"] = _ratio(total["tracking.grid_points"] - passes,
                                          total["tracking.solves"] - passes)
    return out


def absent_metrics(present_spans, count_errors) -> list:
    """Metrics whose spans were not hooked or whose counts could not be read."""
    def missing(need):
        span = need.rstrip("#")
        return span not in present_spans or (need.endswith("#") and span in count_errors)

    return sorted(name for name, (_, needs) in PER_LAYER.items()
                  if any(missing(need) for need in needs))


# Spans of the public entry points an operation calls.  They cover the
# whole operation, so their own self time is what the inner hooks miss.
ENTRY_SPANS = ("rb.build_basis", "rb.classical_pipeline", "tracking.track")


def inner_self_seconds(root) -> float:
    """Self time of the layer spans under ``root``, leaving out the root
    and the entry-point spans."""
    return sum(s.self_seconds for s in walk(root)
               if s is not root and s.name not in ENTRY_SPANS)
