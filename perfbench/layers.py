"""Per-layer metrics of one traced pass: counts, busy and self time, fits, cost-model sums."""

from __future__ import annotations

import numpy as np

from tracer import CALL_KINDS, CYCLE, EXACT, EXHAUSTED, FLOAT64, FOUND, NONE_K, SPAN_NAMES

def _fit(xs: np.ndarray, dur_ns: np.ndarray) -> tuple[float, float]:
    """Least-squares line of per-call time against work: (intercept us, slope ns)."""
    if len(xs) < 2 or np.ptp(xs) == 0:
        return (float(np.mean(dur_ns)) / 1e3 if len(dur_ns) else 0.0), 0.0
    slope, intercept = np.polyfit(xs.astype(float), dur_ns, 1)
    return float(intercept) / 1e3, float(slope)


def _timing(dur_ns: np.ndarray) -> dict[str, float]:
    if not len(dur_ns):
        return {"calls": 0, "busy_s": 0.0, "p50_us": 0.0, "p99_us": 0.0}
    p50, p99 = np.percentile(dur_ns, [50, 99]) / 1e3
    return {"calls": int(len(dur_ns)), "busy_s": float(dur_ns.sum()) / 1e9,
            "p50_us": float(p50), "p99_us": float(p99)}


def ledger(tracer) -> dict[str, int]:
    """The paper's cost model summed over every rotor solve of the pass."""
    calls = tracer.calls
    rows = np.concatenate([tracer.rows_of("rotor_int"), tracer.rows_of("rotor_real")])
    reason, steps = calls["reason"][rows], calls["outer_steps"][rows]
    return {
        "solves": int(len(rows)),
        "additions": int(calls["additions"][rows].sum()),
        "subtractions": int(calls["subtractions"][rows].sum()),
        "comparisons": int(calls["comparisons"][rows].sum()),
        "outer_steps": int(steps.sum()),
        "found": int((reason == FOUND).sum()),
        "cycle_detected": int((reason == CYCLE).sum()),
        "exhausted": int((reason == EXHAUSTED).sum()),
        "precheck_hits": int(((reason == FOUND) & (steps == 0)).sum()),
    }


def layer_metrics(tracer, expected_k: list, order_cache) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the pass, as name -> (value, unit).

    ``expected_k`` is aligned with the call table and holds the reference
    least k of each rotor call; ``order_cache`` is the ``cache_info()`` of
    ``multiplicative_order`` after the pass.
    """
    spans, calls = tracer.spans, tracer.calls
    dur = (spans["t1"] - spans["t0"]).astype(float)
    names, parent = spans["name"], spans["parent"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    out: dict[str, tuple[float, str]] = {}

    def span_dur(name: str) -> np.ndarray:
        return dur[names == SPAN_NAMES.index(name)]

    def busy(name: str) -> float:
        return float(span_dur(name).sum()) / 1e9

    kind, mode = calls["kind"], calls["mode"]
    call_dur = dur[calls["span"]]
    real = kind == CALL_KINDS.index("rotor_real")
    fixed, float64 = real & (mode >= 8), real & (mode == FLOAT64)
    selections = {
        "rotor.rotor_solve_int": (kind == CALL_KINDS.index("rotor_int"), "step_ns", "outer_steps"),
        "rotor.rotor_solve_real.exact": (real & (mode == EXACT), "step_ns", "outer_steps"),
        "rotor.rotor_solve_real.fixed": (fixed, "step_ns", "outer_steps"),
        "rotor.rotor_solve_real.float64": (float64, "ns_per_addition", "additions"),
    }
    units = {"calls": "count", "busy_s": "s", "p50_us": "us", "p99_us": "us"}
    for prefix, (mask, slope_name, work) in selections.items():
        for key, value in _timing(call_dur[mask]).items():
            out[f"{prefix}.{key}"] = (value, units[key])
        wrapper_us, slope_ns = _fit(calls[work][mask], call_dur[mask])
        out[f"{prefix}.wrapper_us"] = (wrapper_us, "us")
        out[f"{prefix}.{slope_name}"] = (slope_ns, "ns")

    book = ledger(tracer)
    for key in ("additions", "subtractions", "comparisons", "outer_steps", "found",
                "cycle_detected", "exhausted", "precheck_hits"):
        out[f"rotor.{key}"] = (book[key], "count")
    rotor_busy = busy("rotor.rotor_solve_int") + busy("rotor.rotor_solve_real")
    ops = book["additions"] + book["subtractions"]
    out["rotor.ops_per_busy_s"] = (ops / rotor_busy if rotor_busy else 0.0, "1/s")

    k = calls["k"].tolist()
    for label, mask in (("fixed", fixed), ("float64", float64)):
        rows = np.flatnonzero(mask).tolist()
        right = sum((None if k[i] == NONE_K else k[i]) == expected_k[i] for i in rows)
        out[f"rotor.rotor_solve_real.{label}.correct_ratio"] = (
            right / len(rows) if rows else 0.0, "ratio")

    for name in ("rotor.DlogInstance", "oracles.naive_solve", "oracles.bsgs_solve",
                 "oracles.multiplicative_order", "bench.generate_instance", "bench.least_k"):
        out[f"{name}.calls"] = (int(len(span_dur(name))), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    lookups = order_cache.hits + order_cache.misses
    out["oracles.multiplicative_order.cache_hit_ratio"] = (
        order_cache.hits / lookups if lookups else 0.0, "ratio")

    for name in ("bench.run_sweep", "bench.precision_scan", "bench.verify_equivalence"):
        sel = names == SPAN_NAMES.index(name)
        out[f"{name}.busy_s"] = (busy(name), "s")
        out[f"{name}.self_s"] = (float((dur[sel] - child[sel]).sum()) / 1e9, "s")
    out["bench.emit_results.busy_s"] = (busy("bench.emit_results"), "s")
    out["bench.emit_results.bytes"] = (tracer.emit_bytes, "bytes")
    out["bench.fit_complexity.busy_s"] = (busy("bench.fit_complexity"), "s")
    return out
