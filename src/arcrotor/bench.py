"""Benchmark harness: known-answer instances, sweeps, fits and precision scans.

The harness measures what the solvers actually do.  Sweeps and precision
scans share one measurement loop (generate a known-answer instance, take the
oracle's least k, solve, compare); a scan is a per-p failure census over that
loop's record stream, and every result is written by one emitter.  Op counts (additions +
subtractions) are the primary, machine-independent cost metric; wall time is
recorded but never fitted by default.  Because the symbol n in a complexity
claim like "order n squared" admits several readings, the fit accepts an
explicit definition of n (the modulus p, its bit length, or the base x) and
reports a separate fit per definition rather than committing to one.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby, islice
from math import gcd

import numpy as np

from .counters import OpCounters
from .numerics import EXACT, NumericMode, check_tolerance
from .oracles import bsgs_solve, modpow, naive_solve
from .rotor import (
    DlogInstance,
    SolveReason,
    SolveReport,
    rotor_solve_int,
    rotor_solve_real,
)


class InsufficientDataError(ValueError):
    """Raised when a fit is requested over too few records or too few distinct n."""


class EmitError(RuntimeError):
    """Raised when results cannot be written to the requested destination."""


N_DEFINITIONS = ("p", "bits_of_p", "x")

CSV_COLUMNS = (
    "p",
    "x",
    "y",
    "k_true",
    "k_found",
    "additions",
    "subtractions",
    "comparisons",
    "outer_steps",
    "wall_ns",
    "correct",
)

# Deterministic Miller-Rabin witness set, valid for all inputs below 2**64
# (and well beyond); desk-scale moduli stay far under that.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-scale inputs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        v = pow(a, d, n)
        if v == 1 or v == n - 1:
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def least_k(inst: DlogInstance) -> int | None:
    """Ground-truth least exponent: BSGS, which scans naively for a non-unit x."""
    return bsgs_solve(inst)


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedInstance:
    """A solvable instance plus the exponent that generated it.

    The least solution may be smaller than the generating exponent (never
    larger); correctness checks must use the oracle's least k.
    """

    instance: DlogInstance
    generating_k: int


def generate_instance(p: int, rng_seed: int) -> GeneratedInstance:
    """Draw a random known-answer instance: y = x^k mod p.

    x is uniform in [2, p-1] and k uniform in [1, p-1].  For composite p a
    non-unit x can give x^k = 0, which is not a valid target; such draws are
    rejected and redrawn from the same stream (x = p-1 always terminates
    the loop).
    """
    if p < 3:
        raise ValueError(f"instance generation requires p >= 3, got {p}")
    rng = random.Random(rng_seed)
    while True:
        x = rng.randrange(2, p)
        k = rng.randrange(1, p)
        y = modpow(x, k, p)
        if y != 0:
            return GeneratedInstance(DlogInstance(p, x, y), k)


def _child_seed(seed: int, p: int, index: int) -> int:
    # Arithmetic derivation keeps per-instance streams independent of
    # iteration order and of Python hash randomisation.
    return (seed * 1_000_003 + p) * 1_000_003 + index


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


ALGORITHMS = ("bsgs", "naive", "rotor-int", "rotor-real")


def check_solver_options(algo: str, mode: NumericMode, tolerance: float | None) -> None:
    """Reject an unknown algo, and a mode or tolerance the algo would ignore.

    Only rotor-real reads the mode and the tolerance; the others always
    answer in exact arithmetic.  Each message starts with the name of the
    offending setting.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"algo {algo!r} is unknown, expected one of {list(ALGORITHMS)}")
    if algo != "rotor-real":
        if not mode.is_exact:
            raise ValueError(f"mode {mode} applies to algo rotor-real only, not {algo}")
        if tolerance is not None:
            raise ValueError(f"tolerance applies to algo rotor-real only, not {algo}")
    check_tolerance(tolerance)


def solve(
    algo: str, inst: DlogInstance, mode: NumericMode = EXACT, tolerance: float | None = None
) -> SolveReport:
    """Run the named solver on one instance; oracle answers carry zero counters."""
    if algo == "rotor-real":
        return rotor_solve_real(inst, mode, tolerance)
    if algo == "rotor-int":
        return rotor_solve_int(inst)
    if algo == "naive":
        k = naive_solve(inst)
    elif algo == "bsgs":
        k = bsgs_solve(inst)
    else:
        raise ValueError(f"algo {algo!r} is unknown, expected one of {list(ALGORITHMS)}")
    reason = SolveReason.FOUND if k is not None else SolveReason.EXHAUSTED_ITERATIONS
    return SolveReport(k, reason, OpCounters())


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one measurement sweep over a modulus range."""

    p_min: int
    p_max: int
    samples_per_p: int
    seed: int
    prime_only: bool = True
    algo: str = "rotor-int"
    mode: NumericMode = EXACT
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.p_min <= self.p_max:
            raise ValueError(
                f"p_min must lie in [2, p_max], got p_min={self.p_min}, p_max={self.p_max}"
            )
        if self.samples_per_p < 1:
            raise ValueError(f"samples_per_p must be >= 1, got {self.samples_per_p}")
        check_solver_options(self.algo, self.mode, self.tolerance)


@dataclass(frozen=True)
class SweepRecord:
    """One solved instance with its ground truth and exact costs."""

    p: int
    x: int
    y: int
    k_true: int | None
    k_found: int | None
    counters: OpCounters
    wall_ns: int
    correct: bool


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Run the configured sweep; deterministic given the seed, up to wall_ns.

    Each record's ``correct`` flag compares the solver's answer against the
    oracle's least k (not the generating exponent).  Moduli below 3 are
    skipped: no instance with base >= 2 exists there.
    """
    return list(_sweep_records(cfg))


def _sweep_records(cfg: SweepConfig) -> Iterator[SweepRecord]:
    # The one measurement loop: records in p-ascending, then sample order.
    for p in range(max(cfg.p_min, 3), cfg.p_max + 1):
        if cfg.prime_only and not is_prime(p):
            continue
        for idx in range(cfg.samples_per_p):
            inst = generate_instance(p, _child_seed(cfg.seed, p, idx)).instance
            k_true = least_k(inst)
            t0 = time.perf_counter_ns()
            report = solve(cfg.algo, inst, cfg.mode, cfg.tolerance)
            wall = time.perf_counter_ns() - t0
            yield SweepRecord(
                p=p,
                x=inst.x,
                y=inst.y,
                k_true=k_true,
                k_found=report.k,
                counters=report.counters,
                wall_ns=wall,
                correct=report.k is not None and report.k == k_true,
            )


# ---------------------------------------------------------------------------
# Complexity fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Power-law fit of total ops against n: slope of log-log least squares."""

    exponent: float
    intercept: float
    r_squared: float
    n_definition: str


def _n_value(record: SweepRecord, n_definition: str) -> int:
    if n_definition == "p":
        return record.p
    if n_definition == "bits_of_p":
        return record.p.bit_length()
    return record.x


def fit_complexity(
    records: list[SweepRecord],
    n_definition: str = "p",
    aggregate: str = "mean",
) -> FitResult:
    """Ordinary least squares on (log n, log ops), ops aggregated within each n.

    ops is additions + subtractions.  Aggregation is the mean per distinct n
    by default; ``aggregate="median"`` is available.  Requires at least 8
    records spanning at least 4 distinct n values, all with positive op
    counts.
    """
    if n_definition not in N_DEFINITIONS:
        raise ValueError(
            f"unknown n definition {n_definition!r}, expected one of {N_DEFINITIONS}"
        )
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    if len(records) < 8:
        raise InsufficientDataError(f"need >= 8 records to fit, got {len(records)}")

    groups: dict[int, list[int]] = {}
    for record in records:
        ops = record.counters.total_arithmetic
        if ops <= 0:
            raise ValueError(
                f"all op counts must be positive to fit; record at p={record.p} has {ops}"
            )
        groups.setdefault(_n_value(record, n_definition), []).append(ops)
    if len(groups) < 4:
        raise InsufficientDataError(
            f"need >= 4 distinct n values to fit, got {len(groups)} for n={n_definition}"
        )

    agg = statistics.mean if aggregate == "mean" else statistics.median
    ns = sorted(groups)
    log_n = np.log([float(n) for n in ns])
    log_ops = np.log([float(agg(groups[n])) for n in ns])
    slope, intercept = np.polyfit(log_n, log_ops, 1)
    predicted = slope * log_n + intercept
    ss_res = float(np.sum((log_ops - predicted) ** 2))
    ss_tot = float(np.sum((log_ops - np.mean(log_ops)) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r_squared, n_definition)


# ---------------------------------------------------------------------------
# Precision scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanBucket:
    p: int
    samples: int
    failures: int


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a precision scan over ascending moduli.

    ``first_failure_p`` is the smallest scanned p at which the approximate
    mode returned a wrong or missing exponent; None when the whole range
    passed.  ``tolerance`` None means the per-p default of half the angular
    step was used.
    """

    mode: NumericMode
    tolerance: float | None
    p_min: int
    p_max: int
    samples_per_p: int
    seed: int
    first_failure_p: int | None
    buckets: tuple[ScanBucket, ...]
    total_instances: int
    total_failures: int
    stopped_early: bool


def precision_scan(
    mode: NumericMode,
    tolerance: float | None,
    p_max: int,
    samples_per_p: int,
    seed: int,
    p_min: int = 3,
    stop_at_first_failure: bool = True,
) -> ScanReport:
    """Hunt for the smallest p at which an approximate mode goes wrong.

    A per-p failure census of a rotor-real sweep over all p >= max(p_min, 3)
    in ``mode``.  A failure is any instance whose returned k differs from the
    oracle's least k (missing answers included).  By default the scan stops
    after the first failing p (completing that p's samples, and generating
    nothing past it); pass ``stop_at_first_failure=False`` for a full failure
    census up to p_max.
    """
    if mode.is_exact:
        raise ValueError(f"mode must be approximate (float64 or fixed:<bits>), got {mode}")
    cfg = SweepConfig(
        max(p_min, 3), p_max, samples_per_p, seed,
        prime_only=False, algo="rotor-real", mode=mode, tolerance=tolerance,
    )

    buckets: list[ScanBucket] = []
    stopped_early = False
    for p, records in groupby(_sweep_records(cfg), key=lambda r: r.p):
        # islice stops at p's last sample; ending the group would generate p+1's first.
        # k_true is never None (y = x^k, k >= 1), so `not correct` is a wrong/missing k.
        failures = sum(not r.correct for r in islice(records, samples_per_p))
        buckets.append(ScanBucket(p, samples_per_p, failures))
        if failures and stop_at_first_failure:
            stopped_early = p < p_max
            break
    return ScanReport(
        mode=mode,
        tolerance=tolerance,
        p_min=cfg.p_min,
        p_max=p_max,
        samples_per_p=samples_per_p,
        seed=seed,
        first_failure_p=next((b.p for b in buckets if b.failures), None),
        buckets=tuple(buckets),
        total_instances=samples_per_p * len(buckets),
        total_failures=sum(b.failures for b in buckets),
        stopped_early=stopped_early,
    )


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------


def record_as_dict(record: SweepRecord) -> dict:
    return {
        "p": record.p,
        "x": record.x,
        "y": record.y,
        "k_true": record.k_true,
        "k_found": record.k_found,
        "additions": record.counters.additions,
        "subtractions": record.counters.subtractions,
        "comparisons": record.counters.comparisons,
        "outer_steps": record.counters.outer_steps,
        "wall_ns": record.wall_ns,
        "correct": record.correct,
    }


def fit_as_dict(fit: FitResult) -> dict:
    return {
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_definition": fit.n_definition,
    }


def scan_as_dict(report: ScanReport) -> dict:
    return {
        "mode": str(report.mode),
        "tolerance_degrees": report.tolerance,
        "p_min": report.p_min,
        "p_max": report.p_max,
        "samples_per_p": report.samples_per_p,
        "seed": report.seed,
        "first_failure_p": report.first_failure_p,
        "total_instances": report.total_instances,
        "total_failures": report.total_failures,
        "stopped_early": report.stopped_early,
        "census": [
            {"p": b.p, "samples": b.samples, "failures": b.failures} for b in report.buckets
        ],
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_results(payload, format: str, path) -> None:
    """Write sweep records, a fit result, or a scan report to CSV or JSON.

    Record CSVs carry exactly the columns in ``CSV_COLUMNS`` with a header
    row always present; JSON mirrors the same field names.  I/O failures
    surface as ``EmitError`` with the destination path in the message.
    """
    fmt = format.lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    # Each payload gives its JSON document, CSV header and CSV rows (as dicts).
    if isinstance(payload, list):
        # lazy, so a CSV of a long sweep holds one row dict at a time
        document = rows = map(record_as_dict, payload)
        header = CSV_COLUMNS
    elif isinstance(payload, FitResult):
        document = fit_as_dict(payload)
        header, rows = tuple(document), [document]
    elif isinstance(payload, ScanReport):
        document = scan_as_dict(payload)
        header, rows = ("p", "samples", "failures"), document["census"]
    else:
        raise TypeError(
            f"cannot emit payload of type {type(payload).__name__}; "
            "expected a record list, FitResult or ScanReport"
        )
    try:
        with open(path, "w", newline="" if fmt == "csv" else None) as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([_csv_cell(row[col]) for col in header] for row in rows)
            else:
                json.dump(document, fh, indent=2, default=list)  # default: the lazy record map
                fh.write("\n")
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Exhaustive equivalence
# ---------------------------------------------------------------------------


_EXAMPLE_LIMIT = 10  # mismatch messages kept in an EquivalenceResult


@dataclass(frozen=True)
class EquivalenceResult:
    p_max: int
    instances: int
    mismatches: int
    examples: tuple[str, ...]


def verify_equivalence(p_max: int) -> EquivalenceResult:
    """Check all solvers agree on every instance with p <= p_max.

    For every p and every valid (x, y): the rotor (``rotor_solve_int``, the
    one exact route) and the brute-force scan must agree on existence and
    least k, and so must baby-step giant-step where gcd(x, p) = 1.  Returns
    the instance count, the mismatch count and the first ten mismatches.
    """
    instances = 0
    mismatches = 0
    examples: list[str] = []

    def note(message: str) -> None:
        nonlocal mismatches
        mismatches += 1
        if len(examples) < _EXAMPLE_LIMIT:
            examples.append(message)

    for p in range(2, p_max + 1):
        for x in range(1, p):
            x_is_unit = gcd(x, p) == 1
            for y in range(1, p):
                inst = DlogInstance(p, x, y)
                expected = naive_solve(inst)
                instances += 1
                ri = rotor_solve_int(inst)
                if ri.k != expected:
                    note(f"rotor-int p={p} x={x} y={y}: got {ri.k}, oracle {expected}")
                if x_is_unit:
                    bk = bsgs_solve(inst)
                    if bk != expected:
                        note(f"bsgs p={p} x={x} y={y}: got {bk}, oracle {expected}")
    return EquivalenceResult(p_max, instances, mismatches, tuple(examples))
