"""Outside-in benchmark of arcrotor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

A run sets the workload up several times in fresh interpreters (``setup_s``),
repeats the workload in-process for ``--seconds`` with tracing off, then runs
it once more with every layer boundary traced.  The traced pass's outputs
are checked against the independent reference in ``reference.py``; the
untraced repetitions must reproduce the traced pass's outputs exactly.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs the
fixed-instance and CLI probes and reports the per-layer metrics.  The last
line of stdout is the result object; earlier lines carry the run manifest
and the cost-model ledger.  Files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _import_package():
    src = ROOT / "src"
    if not (src / "arcrotor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arcrotor sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import arcrotor

    if Path(arcrotor.__file__).resolve().parent != (src / "arcrotor").resolve():
        sys.exit(f"perfbench: imported arcrotor from {arcrotor.__file__}, not from {src}")
    return arcrotor


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh CLI process starts."""
    for name, module in list(sys.modules.items()):
        if name == "arcrotor" or name.startswith("arcrotor."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _digest(public) -> str:
    return hashlib.sha256(repr(public).encode()).hexdigest()


def timed_reps(wl, cfg, work_dir: Path, seconds: float) -> list[tuple[float, float, int, str]]:
    """Repeat the workload for ``seconds``.

    Returns (wall seconds, slow-down, instances, output digest) per run; the
    slow-down comes from calibration samples taken right before and after it.
    """
    reps = []
    deadline = time.perf_counter() + seconds
    cal = speed.sample()
    while not reps or time.perf_counter() < deadline:
        clear_caches()
        gc.collect()
        t0 = time.perf_counter()
        out = wl.run(cfg, work_dir)
        wall = time.perf_counter() - t0
        cal_next = speed.sample()
        reps.append((wall, speed.slowdown(cal, cal_next), wl.instances(out), _digest(wl.public(out))))
        cal = cal_next
        del out
    return reps


def _check_ledger(key: str, book: dict) -> bool:
    """Store this run's ledger; False if an earlier run of the same code disagreed."""
    path = OUT_DIR / "ledger.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == book
    known[key] = book
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def _order_cache_info(oracles):
    info = getattr(oracles.multiplicative_order, "cache_info", None)
    return info() if info else argparse.Namespace(hits=0, misses=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    arcrotor = _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.build(args.seed)
    if args.setup_probe:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    import layers
    import probes
    import reference
    import tracer

    def log(message: str) -> None:
        print(f"perfbench[{wl.name}]: {message}", file=sys.stderr, flush=True)

    work_dir = OUT_DIR / "work" / wl.name
    work_dir.mkdir(parents=True, exist_ok=True)
    manifest = probes.manifest(ROOT, arcrotor, sys.argv, wl.name, args.seed)
    record: dict = {"manifest": manifest}

    if not args.trace:
        setup = probes.setup_seconds(ROOT, wl.name, args.seed)
        record["setup"] = [{"seconds": s, "slowdown": f} for s, f in setup]
        log(f"set-up " + ", ".join(f"{s:.3f} s / {f:.2f}" for s, f in setup))

    reps = timed_reps(wl, cfg, work_dir, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["reps"] = [{"seconds": s, "slowdown": f, "instances": n} for s, f, n, _ in reps]
    log(f"{len(reps)} timed runs: " + ", ".join(f"{s:.3f} s / {f:.2f}" for s, f, _, _ in reps))

    trace = tracer.Tracer()
    clear_caches()
    gc.collect()
    # The recorded calls keep their results alive; with the cycle collector on,
    # its passes over them would land inside the timed spans.
    gc.disable()
    try:
        with trace.installed({"bench": arcrotor.bench, "oracles": arcrotor.oracles}):
            t0 = time.perf_counter()
            out = wl.run(cfg, work_dir)
            traced_s = time.perf_counter() - t0
    finally:
        gc.enable()
    order_cache = _order_cache_info(arcrotor.oracles)
    trace.finish(arcrotor.EXACT)
    log(f"traced run {traced_s:.3f} s, {len(trace.spans['t0'])} spans; checking outputs")

    ref = reference.Reference()
    findings = reference.Findings()
    expected_k = reference.check_calls(trace, ref, findings)
    wl.check(out, cfg, trace, ref, findings)
    instances = wl.instances(out)
    whole_output = any(not all(isinstance(v, int) for v in key) for key in findings.bad)
    failed = instances if whole_output else min(len(findings.bad), instances)
    attempted = instances
    truth = _digest(wl.public(out))
    for _, _, n, digest in reps:
        attempted += n
        failed += n if digest != truth else 0

    book = {"instances": instances, **layers.ledger(trace)}
    ledger_ok = _check_ledger(f"{manifest['code_sha256']}:{wl.name}:{args.seed}", book)
    record["ledger"] = {**book, "matches_earlier_runs": ledger_ok}

    if args.trace:
        metrics = layers.layer_metrics(trace, expected_k, order_cache)
        base_s = statistics.median(s for s, _, _, _ in reps)
        metrics["trace.overhead_frac"] = (traced_s / base_s - 1.0, "ratio")
        metrics["trace.workload_s"] = (traced_s, "s")
        probe_metrics, record["probes"], wrong = probes.fixed_instance_probes(arcrotor, clear_caches)
        metrics.update(probe_metrics)
        attempted += len(record["probes"])
        failed += wrong
        import_s, process_s, cli_bad = probes.cli_probe(ROOT)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.process_s"] = (process_s, "s")
        attempted += probes.CLI_PROBES
        failed += cli_bad
        if wrong or cli_bad:
            log(f"FAIL {wrong} fixed-instance probe(s), {cli_bad} CLI probe(s) off the reference")
        trace.write(OUT_DIR / f"spans-{wl.name}.npz")
    else:
        metrics = {
            # Both at the reference machine speed (see speed.py).
            "instances_per_s": (statistics.median(n * f / s for s, f, n, _ in reps), "1/s"),
            "setup_s": (statistics.median(s / f for s, f in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for example in findings.examples:
        log(f"FAIL {example}")
    if not ledger_ok:
        log("FAIL cost-model ledger differs from an earlier run of the same code and seed")
    result = {
        "correct": failed == 0 and ledger_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record["result"] = result
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("ledger " + json.dumps(record["ledger"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
