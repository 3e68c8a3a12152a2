"""The benchmark's workloads.  Each runs, in-process, the public calls one CLI command makes.

``arcrotor`` must be importable (``run.py`` puts the checkout's ``src`` on
the path first).  Every call into the package goes through a module
attribute, such as ``bench.run_sweep``, so the traced pass sees it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from arcrotor import SweepConfig, bench, parse_mode

import reference


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Any]  # seed -> config
    run: Callable[[Any, Path], Any]  # (config, output dir) -> output
    instances: Callable[[Any], int]
    public: Callable[[Any], Any]  # output -> comparable form, free of wall times
    check: Callable[..., None]  # (output, config, tracer, reference, findings)


def _csv_without_wall(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ns") if rows and "wall_ns" in rows[0] else None
    return tuple(tuple(c for j, c in enumerate(row) if j != drop) for row in rows)


# -- sweep -----------------------------------------------------------------
# As `arcrotor sweep --p-min 100 --p-max 5000 --samples 10 --seed S --out F`.


def _sweep_build(seed: int) -> SweepConfig:
    return SweepConfig(p_min=100, p_max=5000, samples_per_p=10, seed=seed)


def _sweep_run(cfg: SweepConfig, out_dir: Path) -> dict:
    path = out_dir / "sweep.csv"
    records = bench.run_sweep(cfg)
    bench.emit_results(records, "csv", path)
    fittable = [r for r in records if r.counters.total_arithmetic > 0]
    fits = {n: bench.fit_complexity(fittable, n, "mean") for n in ("p", "bits_of_p")}
    return {"records": records, "fits": fits, "path": path}


def _sweep_public(out: dict) -> tuple:
    records = tuple(
        (r.p, r.x, r.y, r.k_true, r.k_found, r.counters.additions, r.counters.subtractions,
         r.counters.comparisons, r.counters.outer_steps, r.correct)
        for r in out["records"]
    )
    fits = tuple((n, f.exponent, f.intercept, f.r_squared) for n, f in out["fits"].items())
    return records, fits, _csv_without_wall(out["path"])


# -- verify ----------------------------------------------------------------
# As `arcrotor verify --p-max 60`.  Exhaustive, so the seed is not used.


def _verify_run(p_max: int, out_dir: Path):
    return bench.verify_equivalence(p_max)


def _verify_public(result) -> tuple:
    return result.p_max, result.instances, result.mismatches, tuple(result.examples)


# -- precision scans -------------------------------------------------------
# As `arcrotor precision-scan --mode M --p-max P --samples S --seed N --scan-all --out F`.


def _scan_config(mode: str, p_max: int, samples: int) -> Callable[[int], dict]:
    def build(seed: int) -> dict:
        return {"mode": parse_mode(mode), "p_max": p_max, "samples": samples, "seed": seed}

    return build


def _scan_run(cfg: dict, out_dir: Path) -> dict:
    path = out_dir / "scan.csv"
    report = bench.precision_scan(
        mode=cfg["mode"],
        tolerance=None,
        p_max=cfg["p_max"],
        samples_per_p=cfg["samples"],
        seed=cfg["seed"],
        stop_at_first_failure=False,
    )
    bench.emit_results(report, "csv", path)
    return {"report": report, "path": path}


def _scan_public(out: dict) -> tuple:
    return repr(bench.scan_as_dict(out["report"])), _csv_without_wall(out["path"])


def _scan_instances(out: dict) -> int:
    return out["report"].total_instances


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", _sweep_build, _sweep_run, lambda out: len(out["records"]),
                 _sweep_public, reference.check_sweep),
        Workload("verify", lambda seed: 60, _verify_run, lambda result: result.instances,
                 _verify_public, reference.check_verify),
        Workload("scan-float64", _scan_config("float64", 250, 24), _scan_run, _scan_instances,
                 _scan_public, reference.check_scan),
        Workload("scan-fixed", _scan_config("fixed:32", 1200, 3), _scan_run, _scan_instances,
                 _scan_public, reference.check_scan),
    )
}
