"""Same-behaviour digest of the rotor solvers: record counts and sha256s.

Run from the root of a checkout (``src/`` is put on the path):

    python tools/solve_digest.py

Two trees that print the same lines give the same answers on every input
below.  Each record holds the values and their Python types, so an int that
turns into a float changes the digest.

* Every (p, x, y) with p <= 60, plus 2,000 seeded random instances with
  p < 5,000, through ``rotor_solve_int`` and ``rotor_solve_real`` in
  fixed:8/16/24/32/40 at tolerance None, 0 and 0.7: k, reason and the four
  counters of each solve, and the full return of the ``_walk_int`` call
  that the solve makes.
* 30,000 ``rotor_step`` calls on wide integer states (wrap from 2**29 to
  past 2**53, start in [-wrap, 3 * wrap]): the new state and the counters,
  and the full return of a ``_walk_int`` walk of 1 to 9 steps from that
  state.
* The same instances through ``rotor_solve_real`` in float64 at tolerance
  None, 0 and 0.7: k, reason and the four counters, and the full return of
  the ``_walk_float`` call that the solve makes.
* 30,000 ``rotor_step`` calls on float states (wrap 360.0, 1.0 or 0.1;
  start in (-10, 1000) degrees scaled to the wrap, or dyadic): the new
  state and the counters, and the full return of a ``_walk_float`` walk of
  1 to 40 steps from that state.

The ``records`` line hashes these.  The ``orbits`` line hashes, for each
distinct (p, x) of the instances above, the trail and the full return of
the integer-field orbit walk ``_walk_int(x, x, 1, 0, p, p - 1, trail)``,
the orbit that exhaustive verify reads; the walks with p above 321 that
pass the 64-step head, 1,396 of the 3,741, fill their trails in numpy
blocks.  The ``walks`` line hashes the full
return of 4,000 seeded integer walks with wraps below 2**30, whose hits and
ends fall on each side of the step counts where the integer kernel moves
from its loop to numpy blocks (a 64-step head in walks with bounds past 320
steps) and from one block to the next.  The ``wide`` line does the same for
3,000 seeded walks with wraps from 2**30 to past 2**48 (fixed-point wraps
360 << b among them), where blocks stop.  The ``chunks`` line hashes the
full return, and the trail where one is kept, of 3,000 seeded walks with
wraps from 2**45 to 2**47 and bounds up to 320 steps, before the block
entry, whose bound's running sum can pass 2**53: the integer kernel runs
them on float64 carriers in passes of (2**53 - 1) // wrap steps, with a
trail or not and with a cycle reference of their own or their start.  The
``passes`` line does the same for 3,000 walks with wraps from 2**47 to
(2**53 - 1) // 8, whose passes hold 63 down to 8 steps, the shortest the
kernel runs on carriers.

The ``cli`` line hashes ``CLI_CALLS``, in-process ``arcrotor.cli.main``
calls: solve in every algo and mode, verify, sweeps and precision scans in
CSV and JSON (stop mode and ``--scan-all``), two usage errors and an
unwritable ``--out``.  Each call runs in a fresh temporary working directory
with relative output paths, and its record holds the stdout, the stderr, the
exit code and every file written, with the ``wall_ns`` column or field
dropped.

The ``oracles`` line hashes ``naive_solve``, ``bsgs_solve`` and
``least_k`` on the instances above and on units of order 2 and 3 mod
1,000,003 (every y of their orbits and one outside), and
``multiplicative_order`` of every unit with p <= 60.

The ``generated`` line hashes ``generate_instance(p, s)`` for every p from
3 to 2,000 and s from 0 to 4, and the records, ``wall_ns`` aside, of a
rotor-int ``run_sweep`` over the primes 100-1,000 with 3 samples each and of
the fixed:16 sweep that ``precision_scan`` runs over every p from 3 to 200
(3 samples each, the full census), with that scan's report.

Floats are hashed by ``float.hex``, so every bit counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arcrotor import (  # noqa: E402
    FLOAT64_DEGREES,
    DlogInstance,
    OpCounters,
    RotorState,
    fixed_point,
    rotor_solve_int,
    rotor_solve_real,
    rotor_step,
)
from arcrotor import bsgs_solve, cli, multiplicative_order, naive_solve  # noqa: E402
from arcrotor import SweepConfig, generate_instance, precision_scan, run_sweep  # noqa: E402
from arcrotor.bench import _sweep_records, least_k, scan_as_dict  # noqa: E402
from arcrotor.rotor import _arc_setup, _walk_float, _walk_int  # noqa: E402

MODES = [fixed_point(b) for b in (8, 16, 24, 32, 40)]
TOLERANCES = (None, 0.0, 0.7)
SEED = 20091


def _typed(values) -> str:
    return repr([(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in values])


def _counters(c: OpCounters) -> tuple:
    return (c.additions, c.subtractions, c.comparisons, c.outer_steps)


def _instances():
    for p in range(2, 61):
        for x in range(1, p):
            for y in range(1, p):
                yield DlogInstance(p, x, y)
    rng = random.Random(SEED)
    for _ in range(2000):
        p = rng.randrange(2, 5000)
        yield DlogInstance(p, rng.randrange(1, p), rng.randrange(1, p))


def _solve_records():
    for inst in _instances():
        r = rotor_solve_int(inst)
        walk = _walk_int(inst.x, inst.x, inst.y, inst.y, inst.p, inst.p - 1)
        yield _typed([r.k, r.reason.value, *_counters(r.counters), *walk])
        for mode in MODES:
            for tolerance in TOLERANCES:
                r = rotor_solve_real(inst, mode, tolerance)
                _, start, lo, hi, wrap = _arc_setup(inst, mode, tolerance)
                walk = _walk_int(inst.x, start, lo, hi, wrap, inst.p - 1)
                yield _typed([r.k, r.reason.value, *_counters(r.counters), *walk])


def _step_records():
    rng = random.Random(SEED + 1)
    for _ in range(30000):
        wrap = rng.randrange(2**29, 2 ** rng.choice((31, 41, 49, 53, 54)))
        acc = rng.randrange(-wrap, 3 * wrap + 1)
        x = rng.choice((rng.randrange(1, 3000), rng.randrange(1, 2**24)))
        target = rng.randrange(0, wrap + 1)
        counters = OpCounters()
        state = rotor_step(RotorState(acc, target, 1), x, wrap, counters)
        tol = rng.choice((0, rng.randrange(0, wrap)))
        walk = _walk_int(x, acc, target - tol, target + tol, wrap, rng.randrange(1, 10))
        yield _typed([state.acc, state.target, state.exponent, *_counters(counters), *walk])


def _float_solve_records():
    for inst in _instances():
        for tolerance in TOLERANCES:
            r = rotor_solve_real(inst, FLOAT64_DEGREES, tolerance)
            _, start, target, tol, wrap = _arc_setup(inst, FLOAT64_DEGREES, tolerance)
            walk = _walk_float(inst.x, start, target, tol, wrap, inst.p - 1)
            yield _typed([r.k, r.reason.value, *_counters(r.counters), *walk])


def _float_step_records():
    rng = random.Random(SEED + 2)
    for _ in range(30000):
        wrap = rng.choice((360.0, 1.0, 0.1))
        if rng.random() < 0.5:
            acc = rng.uniform(-10.0, 1000.0) * wrap / 360
        else:
            acc = rng.randrange(1, 3 * 2**20) * wrap / 2 ** rng.randrange(12, 21)
        # the literal subtraction loop of a non-integral wrap runs about
        # x * acc / wrap times, so x stays small there
        x = rng.randrange(1, 3000 if wrap != 0.1 else 40)
        p = rng.randrange(3, 400)
        target = rng.randrange(1, p) * (wrap / p) if rng.random() < 0.5 else rng.uniform(0.0, wrap)
        counters = OpCounters()
        state = rotor_step(RotorState(acc, target, 1), x, wrap, counters)
        tol = rng.choice((0.0, wrap / 2 / p, rng.uniform(0.0, wrap / p)))
        walk = _walk_float(x, acc, target, tol, wrap, rng.randrange(1, 41))
        yield _typed([state.acc, state.target, state.exponent, *_counters(counters), *walk])


def _orbit_records():
    for p, x in dict.fromkeys((inst.p, inst.x) for inst in _instances()):
        trail = []
        walk = _walk_int(x, x, 1, 0, p, p - 1, trail)
        yield _typed([*walk, *trail])


# Hits and ends on each side of where the integer kernel's loop hands over
# to blocks (64 steps, in walks with bounds from 321 steps on), and of
# blocks of 1,024 and 2,048 values.
_EDGES = (1, 2, 63, 64, 65, 66, 319, 320, 321, 322, 1087, 1088, 1089, 1090, 3135, 3136, 3137)


def _seeded_walks(seed, count, draw_wrap, draw_x, top):
    """``count`` seeded walks: the wrap and x from their draws, bound and hit step below ``top``."""
    rng = random.Random(seed)
    for _ in range(count):
        wrap = draw_wrap(rng)
        x = draw_x(rng, wrap)
        acc = rng.choice((rng.randrange(1, wrap + 1), rng.randrange(0, 3 * wrap + 1)))
        max_steps = rng.choice(_EDGES + (rng.randrange(0, top),))
        s = rng.choice(_EDGES + (rng.randrange(1, top),))
        target = rng.choice((acc * pow(x, s, wrap) % wrap or wrap, rng.randrange(0, wrap + 1)))
        tol = rng.choice((0, -1, 1, wrap // 2000))
        yield _typed(_walk_int(x, acc, target - tol, target + tol, wrap, max_steps))


def _walk_records():
    # wraps below 2**30
    def wraps(rng):
        return rng.choice((rng.randrange(2, 5000), rng.randrange(2, 2**30)))

    def xs(rng, wrap):
        return rng.randrange(1, 2 * wrap)

    return _seeded_walks(SEED + 3, 4000, wraps, xs, 6000)


def _wide_records():
    # wraps from 2**30 to past 2**48, where blocks stop, fixed-point ones among them
    def wraps(rng):
        return rng.choice(
            (
                360 << rng.randrange(22, 40),
                2**48 + rng.randrange(-(2**10), 2**10),
                rng.randrange(2**30, 2**48),
            )
        )

    def xs(rng, wrap):
        return rng.choice((rng.randrange(1, 40), rng.randrange(1, 2 * wrap)))

    return _seeded_walks(SEED + 4, 3000, wraps, xs, 4000)


def _chunk_records():
    # wraps from 2**45 to 2**47, whose passes hold 255 down to 64 steps
    return _pass_walks(SEED + 5, 2**45, 2**47)


def _pass_records():
    # wraps from 2**47 to (2**53 - 1) // 8, whose passes hold 63 down to 8 steps
    return _pass_walks(SEED + 6, 2**47, (2**53 - 1) // 8)


def _pass_walks(seed, low, high):
    """3,000 seeded walks with wraps in [low, high] and bounds up to 320 steps."""
    rng = random.Random(seed)
    for _ in range(3000):
        wrap = rng.randrange(low, high + 1)
        x = rng.choice((rng.randrange(1, 40), rng.randrange(1, 2**53 // wrap)))
        acc = rng.choice((rng.randrange(1, wrap + 1), rng.randrange(0, 3 * wrap + 1)))
        max_steps = rng.choice(((2**53 - 1) // wrap + 1, 320, rng.randrange(0, 321)))
        on_walk = [acc * pow(x, rng.randrange(1, 321), wrap) % wrap or wrap for _ in range(2)]
        target = rng.choice((on_walk[0], rng.randrange(0, wrap + 1)))
        tol = rng.choice((0, -1, 1, wrap // 2000))
        cycle = rng.choice((None, on_walk[1], rng.randrange(0, wrap + 1)))
        trail = rng.choice((None, []))
        walk = _walk_int(x, acc, target - tol, target + tol, wrap, max_steps, trail, cycle)
        yield _typed([*walk, trail is None, *(trail or ())])


# Units of order 2 and 3 mod the prime 1,000,003, whose orbits close within
# BSGS's 1,001 baby steps: every y of each orbit, and one y outside it.
_SMALL_ORDER = [
    (1_000_003, x, y) for x in (1_000_002, 499_501) for y in (1, x, x * x % 1_000_003, 2)
]


def _oracle_records():
    for inst in (*_instances(), *(DlogInstance(*t) for t in _SMALL_ORDER)):
        yield _typed([inst.p, inst.x, inst.y, naive_solve(inst), bsgs_solve(inst), least_k(inst)])
    for p in range(2, 61):
        for x in range(1, p):
            if gcd(x, p) == 1:
                yield _typed([p, x, multiplicative_order(x, p)])


def _record_fields(record) -> list:
    # every field but wall_ns, the one that differs between runs
    fields = [record.p, record.x, record.y, record.k_true, record.k_found]
    return [*fields, *_counters(record.counters), record.correct]


def _generated_records():
    for p in range(3, 2001):
        for s in range(5):
            gen = generate_instance(p, s)
            yield _typed([p, s, gen.instance.p, gen.instance.x, gen.instance.y, gen.generating_k])
    for record in run_sweep(SweepConfig(100, 1000, 3, SEED)):
        yield _typed(_record_fields(record))
    mode = fixed_point(16)
    scan = SweepConfig(3, 200, 3, SEED, prime_only=False, algo="rotor-real", mode=mode)
    for record in _sweep_records(scan):
        yield _typed(_record_fields(record))
    report = precision_scan(mode, None, 200, 3, SEED, stop_at_first_failure=False)
    yield repr(scan_as_dict(report))


# Output paths are relative: each call runs in its own temporary directory.
_SOLVE = ("solve", "--p", "373", "--x", "13", "--y", "158")
_SWEEP = ("sweep", "--p-min", "60", "--p-max", "1100", "--samples", "2")
_SCAN = ("precision-scan", "--p-max", "150", "--samples", "2")
CLI_CALLS = (
    *((*_SOLVE, "--algo", algo) for algo in ("bsgs", "naive", "rotor-int")),
    *(
        (*_SOLVE, "--algo", "rotor-real", "--mode", mode)
        for mode in ("exact", "float64", "fixed:8", "fixed:32")
    ),
    *(
        (*_SOLVE, "--algo", "rotor-real", "--mode", "float64", "--tolerance", t)
        for t in ("0", "-1")
    ),
    ("solve", "--p", "7", "--x", "2", "--y", "3"),
    ("verify", "--p-max", "40"),
    (*_SWEEP, "--out", "sweep.csv"),
    (*_SWEEP, "--median", "--seed", "5", "--out", "sweep.json", "--format", "json"),
    (*_SWEEP, "--algo", "rotor-real", "--mode", "fixed:16", "--out", "sweep.csv"),
    (*_SWEEP, "--algo", "naive", "--no-prime-only", "--out", "sweep.json", "--format", "json"),
    ("sweep", "--p-min", "5", "--p-max", "12", "--samples", "1", "--out", "sweep.csv"),
    (*_SCAN, "--mode", "fixed:8", "--out", "scan.csv"),
    (*_SCAN, "--mode", "fixed:8", "--out", "scan.json", "--format", "json"),
    (*_SCAN, "--mode", "float64", "--scan-all", "--out", "scan.csv"),
    (*_SCAN, "--mode", "fixed:12", "--scan-all", "--out", "scan.json", "--format", "json"),
    (*_SCAN, "--mode", "float64", "--samples", "0", "--out", "scan.csv"),
    (*_SWEEP, "--out", "missing/sweep.csv"),
)


def _without_wall_ns(data: bytes) -> bytes:
    # wall_ns is the one output that differs between runs: a record CSV's
    # column, or one line per record in JSON
    rows = data.split(b"\n")
    header = rows[0].rstrip(b"\r").split(b",")
    if b"wall_ns" in header:
        col = header.index(b"wall_ns")
        rows = [b",".join(c for i, c in enumerate(r.split(b",")) if i != col) for r in rows]
    return b"\n".join(r for r in rows if b'"wall_ns":' not in r)


def _cli_records():
    cwd = os.getcwd()
    for argv in CLI_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                files = [(f.name, _without_wall_ns(f.read_bytes())) for f in Path(tmp).iterdir()]
            finally:
                os.chdir(cwd)
        yield _typed([*argv, code, out.getvalue(), err.getvalue(), *sorted(files)])


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    count = 0
    for records in parts:
        for record in records:
            digest.update(record.encode())
            digest.update(b"\n")
            count += 1
    return f"{count} sha256 {digest.hexdigest()}"


def main() -> None:
    parts = (_solve_records(), _step_records(), _float_solve_records(), _float_step_records())
    print(f"records {_digest(*parts)}")
    print(f"orbits {_digest(_orbit_records())}")
    print(f"walks {_digest(_walk_records())}")
    print(f"wide {_digest(_wide_records())}")
    print(f"chunks {_digest(_chunk_records())}")
    print(f"passes {_digest(_pass_records())}")
    print(f"cli {_digest(_cli_records())}")
    print(f"oracles {_digest(_oracle_records())}")
    print(f"generated {_digest(_generated_records())}")


if __name__ == "__main__":
    main()
