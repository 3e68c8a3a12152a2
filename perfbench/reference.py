"""Independent reference answers and the output checks built on them.

Nothing here calls into ``arcrotor``'s solvers or oracles.  The rotor walks
use plain integer arithmetic (the integer field and fixed point) or literal
float64 adds and subtracts; least exponents come from a scan of modular
powers; orders are checked by certificate.  The checks run outside the
timed phase.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

from tracer import CALL_KINDS, CYCLE, EXACT, EXHAUSTED, FLOAT64, FOUND, NONE_K, SPAN_NAMES

SWEEP_COLUMNS = (
    "p", "x", "y", "k_true", "k_found", "additions", "subtractions",
    "comparisons", "outer_steps", "wall_ns", "correct",
)


def _precheck(x: int, y: int):
    # The walk's first comparison sees x^2, so k = 0 and k = 1 are answered
    # before it, at one and two comparisons.
    if y == 1:
        return (0, FOUND, 0, 0, 1, 0)
    if y == x:
        return (1, FOUND, 0, 0, 2, 0)
    return None


def _walk_int(x: int, start: int, target: int, wrap: int, tol: int, max_steps: int):
    acc = start
    subs = 0
    for step in range(1, max_steps + 1):
        s = acc * x
        acc = s % wrap or wrap  # strict ">" wrap: multiples of wrap settle at wrap
        subs += (s - acc) // wrap
        if abs(acc - target) <= tol:
            return (step + 1, FOUND, step * x, subs, step + 2, step)
        if acc == start:
            return (None, CYCLE, step * x, subs, step + 2, step)
    return (None, EXHAUSTED, max_steps * x, subs, max_steps + 2, max_steps)


def walk_exact(p: int, x: int, y: int):
    """(k, reason, additions, subtractions, comparisons, outer_steps) of the exact walk."""
    return _precheck(x, y) or _walk_int(x, x, y, p, 0, p - 1)


def _round_half_even(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def walk_fixed(p: int, x: int, y: int, bits: int, tolerance: float | None):
    """The walk in fixed point: theta = 360/p rounded to 2**-bits degree, exact adds."""
    early = _precheck(x, y)
    if early:
        return early
    scale = 1 << bits
    theta = _round_half_even(360 * scale, p)
    tol = 180.0 / p if tolerance is None else tolerance
    tol_raw = round(tol * scale)  # scaling by 2**bits is exact; round() ties to even
    return _walk_int(x, x * theta, y * theta, 360 * scale, tol_raw, p - 1)


def walk_float64(p: int, x: int, y: int, tolerance: float | None):
    """The walk in float64 degrees with literal repeated adds and subtracts."""
    early = _precheck(x, y)
    if early:
        return early
    theta = 360.0 / p
    first = acc = x * theta
    target = y * theta
    tol = 180.0 / p if tolerance is None else tolerance
    subs = 0
    for step in range(1, p):
        total = 0.0
        for _ in range(x):
            total += acc
        acc = total
        while acc > 360.0:
            acc -= 360.0
            subs += 1
        if abs(acc - target) <= tol:
            return (step + 1, FOUND, step * x, subs, step + 2, step)
        if acc == first:
            return (None, CYCLE, step * x, subs, step + 2, step)
    return (None, EXHAUSTED, (p - 1) * x, subs, p + 1, p - 1)


def least_k(p: int, x: int, y: int) -> int | None:
    """Least k >= 0 with x**k = y (mod p): scan of all p powers x**0 .. x**(p-1)."""
    acc = 1 % p
    for k in range(p):
        if acc == y:
            return k
        acc = acc * x % p
    return None


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_order(x: int, p: int, t: int) -> bool:
    """Certificate check: x**t = 1 and x**(t/q) != 1 for every prime q | t."""
    return (
        t >= 1
        and math.gcd(x, p) == 1
        and pow(x, t, p) == 1 % p
        and all(pow(x, t // q, p) != 1 for q in _prime_factors(t))
    )


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


class Reference:
    """Reference answers cached per instance, so repeated calls cost one walk."""

    def __init__(self) -> None:
        self._walks: dict = {}
        self._least: dict = {}

    def walk(self, p: int, x: int, y: int, mode: int, tol: float | None):
        key = (p, x, y, mode, tol)
        got = self._walks.get(key)
        if got is None:
            if mode == EXACT:
                got = walk_exact(p, x, y)
            elif mode == FLOAT64:
                got = walk_float64(p, x, y, tol)
            else:
                got = walk_fixed(p, x, y, mode, tol)
            self._walks[key] = got
        return got

    def least_k(self, p: int, x: int, y: int) -> int | None:
        key = (p, x, y)
        if key not in self._least:
            self._least[key] = least_k(p, x, y)
        return self._least[key]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Findings:
    """Failed instances, keyed by (p, x, y), with a few readable examples."""

    def __init__(self, limit: int = 10) -> None:
        self.bad: set = set()
        self.examples: list[str] = []
        self.limit = limit

    def fail(self, key, message: str) -> None:
        self.bad.add(key)
        if len(self.examples) < self.limit:
            self.examples.append(message)


def check_calls(tracer, ref: Reference, findings: Findings) -> list:
    """Check every recorded solver and oracle call against the reference.

    Returns, aligned with the call table, the reference least k of each
    rotor call (None for other kinds), for the per-layer metrics.
    """
    calls = {key: col.tolist() for key, col in tracer.calls.items()}
    names = tracer.spans["name"][tracer.calls["span"]].tolist()
    rotor_kinds = (CALL_KINDS.index("rotor_int"), CALL_KINDS.index("rotor_real"))
    order_kind = CALL_KINDS.index("order")
    expected_k: list = []
    for i, kind in enumerate(calls["kind"]):
        p, x, y = calls["p"][i], calls["x"][i], calls["y"][i]
        k = None if calls["k"][i] == NONE_K else calls["k"][i]
        name = SPAN_NAMES[names[i]]
        expected_k.append(None)
        if kind in rotor_kinds:
            tol = calls["tol"][i]
            want = ref.walk(p, x, y, calls["mode"][i], None if math.isnan(tol) else tol)
            got = (k, calls["reason"][i], calls["additions"][i], calls["subtractions"][i],
                   calls["comparisons"][i], calls["outer_steps"][i])
            expected_k[-1] = ref.least_k(p, x, y)
        elif kind == order_kind:
            if k is None or not is_order(x, p, k):
                findings.fail((p, x, 0), f"{name}({x}, {p}) = {k} is not the order")
            continue
        else:
            want, got = ref.least_k(p, x, y), k
        if got != want:
            findings.fail((p, x, y), f"{name} p={p} x={x} y={y} mode={calls['mode'][i]}: "
                                     f"got {got}, reference {want}")
    return expected_k


def check_sweep(out: dict, cfg, tracer, ref: Reference, findings: Findings) -> None:
    """Records, emitted CSV and fits of one sweep, against the reference."""
    records = out["records"]
    primes = [p for p in range(max(cfg.p_min, 3), cfg.p_max + 1) if is_prime(p)]
    seen = [r.p for r in records]
    if seen != [p for p in primes for _ in range(cfg.samples_per_p)]:
        findings.fail(("sweep", "moduli"), "sweep moduli differ from the primes in range")
    for r in records:
        key = (r.p, r.x, r.y)
        if not (2 <= r.x < r.p and 1 <= r.y < r.p):
            findings.fail(key, f"record p={r.p} x={r.x} y={r.y} is not a valid instance")
            continue
        k, _, adds, subs, cmps, steps = ref.walk(r.p, r.x, r.y, EXACT, None)
        k_true = ref.least_k(r.p, r.x, r.y)
        c = r.counters
        got = (r.k_true, r.k_found, c.additions, c.subtractions, c.comparisons,
               c.outer_steps, r.correct)
        want = (k_true, k, adds, subs, cmps, steps, k is not None and k == k_true)
        if got != want or k_true is None or r.wall_ns < 0:
            findings.fail(key, f"record p={r.p} x={r.x} y={r.y}: got {got}, reference {want}")

    with open(out["path"], newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS or len(rows) != len(records) + 1:
        findings.fail(("sweep", "csv"), "sweep CSV header or row count is wrong")
    else:
        for r, row in zip(records, rows[1:]):
            c = r.counters
            want = [r.p, r.x, r.y, r.k_true, r.k_found, c.additions, c.subtractions,
                    c.comparisons, c.outer_steps, r.wall_ns, r.correct]
            if row != [_csv_cell(v) for v in want]:
                findings.fail((r.p, r.x, r.y), f"CSV row {row} does not match its record")

    fittable = [r for r in records if r.counters.additions + r.counters.subtractions > 0]
    for n_def, fit in out["fits"].items():
        want = reference_fit(fittable, n_def)
        got = (fit.exponent, fit.intercept, fit.r_squared)
        if fit.n_definition != n_def or any(abs(a - b) > 1e-9 for a, b in zip(got, want)):
            findings.fail(("sweep", "fit", n_def), f"fit against {n_def}: got {got}, reference {want}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def reference_fit(records, n_def: str) -> tuple[float, float, float]:
    """Least-squares line through (ln n, ln mean ops), in closed form."""
    groups: dict[int, list[int]] = {}
    for r in records:
        n = r.p if n_def == "p" else r.p.bit_length()
        groups.setdefault(n, []).append(r.counters.additions + r.counters.subtractions)
    xs = [math.log(n) for n in sorted(groups)]
    ys = [math.log(float(Fraction(sum(groups[n]), len(groups[n])))) for n in sorted(groups)]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((a - xbar) ** 2 for a in xs)
    slope = sum((a - xbar) * (b - ybar) for a, b in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    ss_res = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(xs, ys))
    ss_tot = sum((b - ybar) ** 2 for b in ys)
    return slope, intercept, 1.0 - ss_res / ss_tot


def check_verify(result, p_max: int, tracer, ref: Reference, findings: Findings) -> None:
    """The exhaustive check must cover every triple and find no mismatch."""
    want = (p_max, sum((p - 1) ** 2 for p in range(2, p_max + 1)), 0, ())
    got = (result.p_max, result.instances, result.mismatches, tuple(result.examples))
    if got != want:
        findings.fail(("verify",), f"verify result {got}, reference {want}")


def check_scan(out: dict, cfg: dict, tracer, ref: Reference, findings: Findings) -> None:
    """Per-p failure census of a precision scan, rebuilt from the solved instances."""
    report = out["report"]
    calls = tracer.calls
    census: dict[int, list[int]] = {}
    for i in tracer.rows_of("rotor_real").tolist():
        p, x, y = int(calls["p"][i]), int(calls["x"][i]), int(calls["y"][i])
        tol = float(calls["tol"][i])
        k = ref.walk(p, x, y, int(calls["mode"][i]), None if math.isnan(tol) else tol)[0]
        bucket = census.setdefault(p, [0, 0])
        bucket[0] += 1
        bucket[1] += k != ref.least_k(p, x, y)
    want = [(p, cfg["samples"], census.get(p, [0, 0])[1]) for p in range(3, cfg["p_max"] + 1)]
    have = [(p, *census[p]) for p in sorted(census)]
    got = [(b.p, b.samples, b.failures) for b in report.buckets]
    failing = [p for p, _, f in want if f]
    summary = (report.total_instances, report.total_failures, report.first_failure_p,
               report.stopped_early)
    want_summary = (sum(s for _, s, _ in want), sum(f for _, _, f in want),
                    failing[0] if failing else None, False)
    with open(out["path"], newline="") as fh:
        csv_rows = list(csv.reader(fh))
    want_csv = [["p", "samples", "failures"]] + [[str(v) for v in b] for b in want]
    for label, a, b in (("census", got, want), ("solved instances", have, want),
                        ("totals", summary, want_summary), ("CSV", csv_rows, want_csv)):
        if a != b:
            findings.fail(("scan", label), f"scan {label} differs from the reference census")
