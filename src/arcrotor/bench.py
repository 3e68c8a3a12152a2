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
import threading
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from itertools import groupby, islice
from math import gcd

import numpy as np

from .numerics import EXACT, NumericMode, _check_mode, _whole, check_tolerance
from .oracles import _BSGS_P_MAX, bsgs_solve, naive_solve
from .rotor import (
    DlogInstance,
    OpCounters,
    SolveReason,
    SolveReport,
    _walk_int,
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

# Deterministic Miller-Rabin witness set, the first 12 primes: valid for
# every n below 318,665,857,834,031,151,167,461 (about 2**78), the least
# strong pseudoprime to all of them; desk-scale moduli stay far under that.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 318,665,857,834,031,151,167,461.

    From that bound on the witnesses can call a composite prime, so a larger
    n raises ValueError.
    """
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"n must be below {_MR_BOUND} for is_prime, got {n}")
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


@dataclass(frozen=True, slots=True, init=False)
class GeneratedInstance:
    """A solvable instance plus the exponent that generated it.

    The least solution may be smaller than the generating exponent (never
    larger); correctness checks must use the oracle's least k.
    """

    instance: DlogInstance
    generating_k: int

    # Stored through its slots' setters, as DlogInstance's fields are.
    def __init__(self, instance: DlogInstance, generating_k: int) -> None:
        _set_instance(self, instance)
        _set_generating_k(self, generating_k)


_set_instance, _set_generating_k = (
    GeneratedInstance.__dict__[f.name].__set__ for f in fields(GeneratedInstance)
)


class _ThreadRandom(threading.local):
    # One generator per thread, reseeded on every call: building a fresh
    # Random costs a sweep instance more than seeding one.
    def __init__(self) -> None:
        self.rng = random.Random()


_thread_random = _ThreadRandom()


def generate_instance(p: int, rng_seed: int) -> GeneratedInstance:
    """Draw a random known-answer instance: y = x^k mod p.

    x is uniform in [2, p-1] and k uniform in [1, p-1].  For composite p a
    non-unit x can give x^k = 0, which is not a valid target; such draws are
    rejected and redrawn from the same stream (x = p-1 always terminates
    the loop).  p and rng_seed must be whole numbers (what
    ``operator.index`` takes).  The draws are those of
    ``random.Random(rng_seed)``, from this thread's own generator reseeded
    on every call, so an instance depends on (p, rng_seed) alone.
    """
    if not type(p) is type(rng_seed) is int:
        p, rng_seed = _whole(p, "p"), _whole(rng_seed, "rng_seed")
    if p < 3:
        raise ValueError(f"instance generation requires p >= 3, got {p}")
    rng = _thread_random.rng
    rng.seed(rng_seed)
    while True:
        x = rng.randrange(2, p)
        k = rng.randrange(1, p)
        y = pow(x, k, p)
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


def check_solver_options(algo: str, mode: NumericMode, tolerance: float | None) -> float | None:
    """Reject an unknown algo, and a mode or tolerance the algo would ignore.

    Only rotor-real reads the mode and the tolerance; the others always
    answer in exact arithmetic.  Each message starts with the name of the
    offending setting.  Returns the tolerance as ``check_tolerance`` does.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"algo {algo!r} is unknown, expected one of {list(ALGORITHMS)}")
    _check_mode(mode)
    if algo != "rotor-real":
        if not mode.is_exact:
            raise ValueError(f"mode {mode} applies to algo rotor-real only, not {algo}")
        if tolerance is not None:
            raise ValueError(f"tolerance applies to algo rotor-real only, not {algo}")
    return check_tolerance(tolerance)


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
    """Configuration of one measurement sweep over a modulus range.

    p_min, p_max, samples_per_p and seed must be whole numbers (what
    ``operator.index`` takes) and are stored as ints; prime_only must be a
    bool (numpy's too) and is stored as one; the tolerance is stored as
    ``check_tolerance`` returns it.
    """

    p_min: int
    p_max: int
    samples_per_p: int
    seed: int
    prime_only: bool = True
    algo: str = "rotor-int"
    mode: NumericMode = EXACT
    tolerance: float | None = None

    def __post_init__(self) -> None:
        for name in ("p_min", "p_max", "samples_per_p", "seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if not isinstance(self.prime_only, (bool, np.bool_)):
            raise ValueError(f"prime_only must be a bool, got {self.prime_only!r}")
        object.__setattr__(self, "prime_only", bool(self.prime_only))
        if not 2 <= self.p_min <= self.p_max:
            raise ValueError(
                f"p_min must lie in [2, p_max], got p_min={self.p_min}, p_max={self.p_max}"
            )
        if self.samples_per_p < 1:
            raise ValueError(f"samples_per_p must be >= 1, got {self.samples_per_p}")
        tolerance = check_solver_options(self.algo, self.mode, self.tolerance)
        object.__setattr__(self, "tolerance", tolerance)


@dataclass(frozen=True, slots=True, init=False)
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

    # Stored through its slots' setters, as DlogInstance's fields are.
    def __init__(self, p, x, y, k_true, k_found, counters, wall_ns, correct) -> None:
        _set_p(self, p)
        _set_x(self, x)
        _set_y(self, y)
        _set_k_true(self, k_true)
        _set_k_found(self, k_found)
        _set_counters(self, counters)
        _set_wall_ns(self, wall_ns)
        _set_correct(self, correct)


_set_p, _set_x, _set_y, _set_k_true, _set_k_found, _set_counters, _set_wall_ns, _set_correct = (
    SweepRecord.__dict__[f.name].__set__ for f in fields(SweepRecord)
)


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Run the configured sweep; deterministic given the seed, up to wall_ns.

    Each record's ``correct`` flag compares the solver's answer against the
    oracle's least k (not the generating exponent).  Moduli below 3 are
    skipped: no instance with base >= 2 exists there.  The first p above
    2**44 (past the oracle's BSGS table) raises ValueError before it is drawn.
    """
    return list(_sweep_records(cfg))


def _sweep_records(cfg: SweepConfig) -> Iterator[SweepRecord]:
    # The one measurement loop: records in p-ascending, then sample order.
    for p in range(max(cfg.p_min, 3), cfg.p_max + 1):
        if p > _BSGS_P_MAX:  # least_k's bound, checked before is_prime's far larger one
            raise ValueError(
                f"p_max must be at most 2**44 for the bsgs oracle, got p_max={cfg.p_max}"
            )
        if cfg.prime_only and not is_prime(p):
            continue
        for idx in range(cfg.samples_per_p):
            inst = generate_instance(p, _child_seed(cfg.seed, p, idx)).instance
            k_true = least_k(inst)
            t0 = time.perf_counter_ns()
            report = solve(cfg.algo, inst, cfg.mode, cfg.tolerance)
            wall = time.perf_counter_ns() - t0
            k = report.k
            yield SweepRecord(
                p, inst.x, inst.y, k_true, k, report.counters, wall, k is not None and k == k_true
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


def _mean(values: list[int]) -> float:
    # statistics.mean's float: int true division rounds correctly, as
    # float(Fraction) does, without summing Fractions
    return sum(values) / len(values)


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

    agg = _mean if aggregate == "mean" else statistics.median
    ns = sorted(groups)
    ops = [agg(groups[n]) for n in ns]
    log_n = np.log([float(n) for n in ns])
    log_ops = np.log([float(v) for v in ops])
    slope, intercept = np.polyfit(log_n, log_ops, 1)
    predicted = slope * log_n + intercept
    ss_res = float(np.sum((log_ops - predicted) ** 2))
    ss_tot = float(np.sum((log_ops - np.mean(log_ops)) ** 2))
    # Constant ops fit exactly, but the logs' rounding leaves ss_tot and
    # ss_res at noise, so that case is read off the exact values.
    r_squared = 1.0 if len(set(ops)) == 1 else 1.0 - ss_res / ss_tot
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
    census up to p_max.  p_min must be a whole number (what ``operator.index``
    takes), and the flag a bool (numpy's too).  A scan that reaches a p
    above 2**44 raises as ``run_sweep`` does.
    """
    if not isinstance(stop_at_first_failure, (bool, np.bool_)):
        raise ValueError(f"stop_at_first_failure must be a bool, got {stop_at_first_failure!r}")
    cfg = SweepConfig(
        max(_whole(p_min, "p_min"), 3), p_max, samples_per_p, seed,
        prime_only=False, algo="rotor-real", mode=mode, tolerance=tolerance,
    )
    if mode.is_exact:
        raise ValueError(f"mode must be approximate (float64 or fixed:<bits>), got {mode}")

    buckets: list[ScanBucket] = []
    stopped_early = False
    for p, records in groupby(_sweep_records(cfg), key=lambda r: r.p):
        # islice stops at p's last sample; ending the group would generate p+1's first.
        # k_true is never None (y = x^k, k >= 1), so `not correct` is a wrong/missing k.
        failures = sum(not r.correct for r in islice(records, cfg.samples_per_p))
        buckets.append(ScanBucket(p, cfg.samples_per_p, failures))
        if failures and stop_at_first_failure:
            stopped_early = p < cfg.p_max
            break
    return ScanReport(
        mode=mode,
        tolerance=cfg.tolerance,
        p_min=cfg.p_min,
        p_max=cfg.p_max,
        samples_per_p=cfg.samples_per_p,
        seed=cfg.seed,
        first_failure_p=next((b.p for b in buckets if b.failures), None),
        buckets=tuple(buckets),
        total_instances=cfg.samples_per_p * len(buckets),
        total_failures=sum(b.failures for b in buckets),
        stopped_early=stopped_early,
    )


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------


def _record_row(record: SweepRecord) -> tuple:
    # A CSV row in CSV_COLUMNS order; the bool cell by identity, so that an
    # int 1 prints 1, and numpy's bool as a bool.  csv writes None as "".
    c, correct = record.counters, record.correct
    if correct is True:
        correct = "true"
    elif correct is False:
        correct = "false"
    elif isinstance(correct, np.bool_):
        correct = "true" if correct else "false"
    return (
        record.p, record.x, record.y, record.k_true, record.k_found,
        c.additions, c.subtractions, c.comparisons, c.outer_steps, record.wall_ns, correct,
    )


def _json_value(value):
    # json.dumps' fallback: a numpy scalar as its Python value; anything else
    # cannot be emitted.
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot emit a value of type {type(value).__name__} as JSON")


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


def emit_results(payload, format: str, path) -> None:
    """Write sweep records, a fit result, or a scan report to CSV or JSON.

    Record CSVs carry exactly the columns in ``CSV_COLUMNS`` with a header
    row always present; JSON mirrors the same field names.  I/O failures
    surface as ``EmitError`` with the destination path in the message.
    """
    fmt = format.lower() if isinstance(format, str) else None
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    # Each payload gives its CSV header and rows (as sequences in header
    # order) and, for JSON, its document.
    if isinstance(payload, list):
        for i, record in enumerate(payload):
            if not isinstance(record, SweepRecord):
                raise TypeError(
                    f"cannot emit record {i} of type {type(record).__name__}; "
                    "expected a SweepRecord"
                )
        # lazy, so a long sweep's CSV holds one row at a time
        header, rows = CSV_COLUMNS, map(_record_row, payload)
        if fmt == "json":  # each record's CSV row by name, with `correct` as stored
            document = [dict(zip(header, _record_row(r)), correct=r.correct) for r in payload]
    elif isinstance(payload, FitResult):
        document = asdict(payload)
        header, rows = tuple(document), [tuple(document.values())]
    elif isinstance(payload, ScanReport):
        document = scan_as_dict(payload)
        header = ("p", "samples", "failures")
        rows = [(b.p, b.samples, b.failures) for b in payload.buckets]
    else:
        raise TypeError(
            f"cannot emit payload of type {type(payload).__name__}; "
            "expected a record list, FitResult or ScanReport"
        )
    if fmt == "json":  # serialised first, so a field it cannot write leaves the file alone
        text = json.dumps(document, indent=2, default=_json_value) + "\n"
    try:
        with open(path, "w", newline="" if fmt == "csv" else None) as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            else:
                fh.write(text)
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Exhaustive equivalence
# ---------------------------------------------------------------------------


_EXAMPLE_LIMIT = 10  # mismatch messages kept in an EquivalenceResult

# Up to this modulus the public solvers also run on every (x, y), as the
# solver-fault tests need.  A solve costs O(p), so solving every instance
# costs O(p^3): about 0.1 s up to here, but most of a p <= 200 run.  Above
# it they run on a sample per (p, x).
_EVERY_INSTANCE_P_MAX = 30


@dataclass(frozen=True)
class EquivalenceResult:
    p_max: int
    instances: int
    mismatches: int
    examples: tuple[str, ...]


def _rotor_ks(p: int, x: int) -> dict[int, int]:
    # The rotor's k of every reachable y in [1, p) by _solve's rules, read
    # off the trail of a walk that cannot hit ([1, 0] is empty): y = 1 and
    # y = x are the pre-checks' k = 0 and 1, and trail position s (from 1,
    # the value x^2) answers k = s + 1 at a value's first appearance.
    ks = {1: 0}
    ks.setdefault(x, 1)
    trail: list[int] = []
    _walk_int(x, x, 1, 0, p, p - 1, trail)
    for k, value in enumerate(trail, 2):
        ks.setdefault(value, k)
    ks.pop(p, None)  # the strict-> wrap parks 0 at the bound p, never a target
    return ks


def _least_ks(p: int, x: int) -> dict[int, int]:
    # naive_solve's scan, shared over y: the least k of every reachable y in
    # [1, p), with one modular multiply per step and no rotor code.  It stops
    # where naive_solve does, back at 1 or at 0, which is never a target.
    ks: dict[int, int] = {}
    acc = 1
    for k in range(p):
        ks.setdefault(acc, k)
        acc = acc * x % p
        if acc <= 1:
            break
    return ks


def verify_equivalence(p_max: int) -> EquivalenceResult:
    """Check all solvers agree on every instance with p <= p_max.

    Per (p, x), the rotor's k for every y is read off one integer-field
    orbit (the trail of one ``rotor._walk_int`` walk, the solve's own
    kernel) and the least k for every y off one brute-force scan of modular
    powers; the two must agree on every y in [1, p).  The public solvers
    ``rotor_solve_int`` and ``naive_solve``, and ``bsgs_solve`` where
    gcd(x, p) = 1, are each compared with the scan per instance: on every
    (x, y) for p <= 30, and above that on the reachable y with the largest
    least k plus the smallest unreachable y, if any.  Every failed check is
    one mismatch.  Returns the instance count (every (p, x, y)), the
    mismatch count and the first ten mismatches.  p_max must be a whole
    number of at least 2 and is stored as an int.
    """
    p_max = _whole(p_max, "p_max")
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    instances = 0
    mismatches = 0
    examples: list[str] = []

    # Called only on a mismatch: a call per check costs verify's small instances.
    def mismatch(label: str, p: int, x: int, y: int, got, want) -> None:
        nonlocal mismatches
        mismatches += 1
        if len(examples) < _EXAMPLE_LIMIT:
            examples.append(f"{label} p={p} x={x} y={y}: got {got}, oracle {want}")

    for p in range(2, p_max + 1):
        for x in range(1, p):
            instances += p - 1
            expected = _least_ks(p, x)
            orbit_ks = _rotor_ks(p, x)
            if orbit_ks != expected:
                for y in range(1, p):
                    got, want = orbit_ks.get(y), expected.get(y)
                    if got != want:
                        mismatch("rotor-orbit", p, x, y, got, want)

            if p <= _EVERY_INSTANCE_P_MAX:
                ys = range(1, p)
            else:
                ys = [max(expected, key=expected.get)]
                ys += islice((y for y in range(1, p) if y not in expected), 1)
            x_is_unit = gcd(x, p) == 1
            for y in ys:
                inst = DlogInstance(p, x, y)
                want = expected.get(y)
                got = rotor_solve_int(inst).k
                if got != want:
                    mismatch("rotor-int", p, x, y, got, want)
                got = naive_solve(inst)
                if got != want:
                    mismatch("naive", p, x, y, got, want)
                if x_is_unit:
                    got = bsgs_solve(inst)
                    if got != want:
                        mismatch("bsgs", p, x, y, got, want)
    return EquivalenceResult(p_max, instances, mismatches, tuple(examples))
