"""Probes outside the workload: set-up time, the CLI process, fixed instances, the run manifest."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import speed
from tracer import EXACT, FLOAT64, mode_code

SETUP_PROBES = 7
CLI_PROBES = 3
PROBE_BUDGET_S = 0.05  # per fixed-instance probe: repeat until this much time is spent
PROBE_MAX_CALLS = 2000
CHILD_TIMEOUT_S = 60


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(root: Path, workload: str, seed: int) -> list[tuple[float, float]]:
    """Time from spawning a fresh interpreter until the workload is ready, several times.

    Returns (seconds, slow-down of the numpy-importing child spawned right
    after it) per probe.
    """
    script = str(Path(__file__).with_name("run.py"))
    args = [script, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return [
        (speed.child_seconds(args, root, timeout=CHILD_TIMEOUT_S), speed.numpy_child_slowdown(root))
        for _ in range(SETUP_PROBES)
    ]


def cli_probe(root: Path) -> tuple[float, float, int]:
    """Median import time of ``arcrotor.cli``, median wall time of one ``solve`` process, and
    how many ``solve`` processes failed to exit 0 with the reference answer of 373/13/158."""
    env = child_env(root)
    timer = "import time; t = time.perf_counter(); import arcrotor.cli; print(time.perf_counter() - t)"
    imports, walls, bad = [], [], 0
    want = reference.walk_exact(373, 13, 158)
    for _ in range(CLI_PROBES):
        done = subprocess.run([sys.executable, "-c", timer], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        imports.append(float(done.stdout.split()[-1]))
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "arcrotor.cli", "solve", "--p", "373", "--x", "13", "--y", "158"],
            cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - t0)
        try:
            got = json.loads(done.stdout)
        except ValueError:
            got = {}
        answer = tuple(got.get(key) for key in ("k", "additions", "subtractions",
                                                  "comparisons", "outer_steps"))
        bad += not (done.returncode == 0 and got.get("k") == 5 and answer == (want[0], *want[2:]))
    return statistics.median(imports), statistics.median(walls), bad


def fixed_instance_probes(arcrotor, clear_caches) -> tuple[dict, dict, int]:
    """Time the reference instances under each solver, cold caches before every call.

    Returns per-layer metrics (median microseconds per call), a record of each
    probe's answer and counters, and how many answers differ from the reference.
    """
    from arcrotor import (FLOAT64_DEGREES, DlogInstance, bsgs_solve, fixed_point, naive_solve,
                          rotor_solve_int, rotor_solve_real)

    points = {
        "p373": DlogInstance(373, 13, 158),
        "p4999": arcrotor.bench.generate_instance(4999, 5).instance,
    }
    fixed32 = fixed_point(32)
    solvers = {
        "rotor_int": (rotor_solve_int, EXACT),
        "rotor_real_exact": (lambda i: rotor_solve_real(i, arcrotor.EXACT), EXACT),
        "rotor_real_fixed32": (lambda i: rotor_solve_real(i, fixed32), mode_code(fixed32)),
        "rotor_real_float64": (lambda i: rotor_solve_real(i, FLOAT64_DEGREES), FLOAT64),
        "naive": (naive_solve, None),
        "bsgs": (bsgs_solve, None),
    }
    ref = reference.Reference()
    metrics, record, wrong = {}, {}, 0
    for point, inst in points.items():
        for label, (solve, mode) in solvers.items():
            samples, spent = [], 0.0
            while len(samples) < 3 or (spent < PROBE_BUDGET_S and len(samples) < PROBE_MAX_CALLS):
                clear_caches()
                t0 = time.perf_counter_ns()
                out = solve(inst)
                samples.append(time.perf_counter_ns() - t0)
                spent += samples[-1] / 1e9
            us = statistics.median(samples) / 1e3
            metrics[f"probe.{point}.{label}_us"] = (us, "us")
            if mode is None:
                got, want = out, ref.least_k(inst.p, inst.x, inst.y)
                record[f"{point}.{label}"] = {"k": got, "us": us}
            else:
                c = out.counters
                got = (out.k, out.reason.value, c.additions, c.subtractions, c.comparisons,
                       c.outer_steps)
                w = ref.walk(inst.p, inst.x, inst.y, mode, None)
                want = (w[0], ("Found", "CycleDetected", "ExhaustedIterations")[w[1]], *w[2:])
                record[f"{point}.{label}"] = dict(
                    zip(("k", "reason", "additions", "subtractions", "comparisons",
                         "outer_steps"), got), us=us)
            wrong += got != want
    return metrics, record, wrong


def _git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None  # not a git checkout of its own
    return lines[1]


def code_digest(root: Path) -> str:
    """sha256 over the package sources and the benchmark's own files."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(root: Path, arcrotor, argv: list[str], workload: str, seed: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "package_version": arcrotor.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argv": argv,
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "code_sha256": code_digest(root),
        "src_lines": src_lines,
    }
