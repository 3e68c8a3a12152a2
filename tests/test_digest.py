"""The fast lines of ``tools/solve_digest.py``, pinned.

They hash the integer kernel's own loop: the ``orbits`` line verify's
trails, the ``walks`` line walks whose hits and ends fall on each side of
the 64-step head and of the numpy block edges, the ``wide`` line the
same for wraps from 2**30 to past 2**48, where blocks stop, and the
``chunks`` line walks with wraps from 2**45 to 2**47 and bounds up to 320
steps, which run on float64 carriers in several passes, and the ``passes``
line the same for wraps from 2**47 to (2**53 - 1) // 8, whose passes hold 63
down to 8 steps.  The ``cli``
line hashes what a fixed set of command-line calls print, return and write,
``wall_ns`` aside.  The ``oracles`` line hashes the answers of
``naive_solve``, ``bsgs_solve`` and ``least_k`` on the digest's instances and
on units whose orbits close within BSGS's baby steps, and the order of every
unit with p <= 60.  The ``generated`` line hashes ``generate_instance`` over
a grid of (p, seed) and the records of a sweep and of a precision scan,
``wall_ns`` aside.  The ``records`` line takes over a minute and stays a
manual check (``python tools/solve_digest.py``).
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"


@pytest.fixture(scope="module")
def solve_digest():
    spec = importlib.util.spec_from_file_location("solve_digest", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_orbits_line(solve_digest):
    assert solve_digest._digest(solve_digest._orbit_records()) == (
        "3741 sha256 949254d903d468d1067dad89652adb18de16709e981a36083ef86d34ced6e015"
    )


def test_walks_line(solve_digest):
    assert solve_digest._digest(solve_digest._walk_records()) == (
        "4000 sha256 a08c111c54284882bccaf333cc8406a45bbb15212804f271cb8f7c05952af594"
    )


def test_wide_line(solve_digest):
    assert solve_digest._digest(solve_digest._wide_records()) == (
        "3000 sha256 102b985b6a1bf871044c83fcfd24cc96e6041f92ccf2cd0f5507417c3d55c72f"
    )


def test_chunks_line(solve_digest):
    assert solve_digest._digest(solve_digest._chunk_records()) == (
        "3000 sha256 de72602e7c9f778dee125585d7e522313480b541f5cc845ed688472ab4342b29"
    )


def test_passes_line(solve_digest):
    assert solve_digest._digest(solve_digest._pass_records()) == (
        "3000 sha256 59b8d62fc8781a3dd048ada6336eae397b2b7f4c48d6b11fcc2d1b43fc6d9406"
    )


def test_cli_line(solve_digest):
    assert solve_digest._digest(solve_digest._cli_records()) == (
        "22 sha256 b2b002f5d2c1443a3826137614a42f63f5ff980a3a0c8cb7142019aea11ed633"
    )


def test_oracles_line(solve_digest):
    assert solve_digest._digest(solve_digest._oracle_records()) == (
        "73319 sha256 5255c10f1e17f29f53cf8a8bdd84bd3b2d7d858a2981030bd36cbdf1c4b4ff04"
    )


def test_generated_line(solve_digest):
    assert solve_digest._digest(solve_digest._generated_records()) == (
        "11014 sha256 dcb603af76919008c23867df6e9dd9ef4e76052b426fe96c964598d8eb1419a0"
    )
