"""Tier-1 smoke run of the benchmark suite.

The benchmarks are not collected by the tier-1 run (``testpaths = tests``),
so without this test they only execute when someone benches - and bit-rot
(a renamed fixture, a moved import, a changed result field) surfaces weeks
late. This test runs the *entire* ``benchmarks/`` directory in a subprocess
under ``REPRO_BENCH_TINY=1``, where every benchmark shrinks its scale knobs
to a seconds-sized shape (see :mod:`benchmarks._tiny`) and gates its
paper-shape assertions, keeping only the scale-free invariants live.

The subprocess runs from a temp directory and writes every artifact under
``REPRO_BENCH_OUT`` there, so a smoke run never clobbers the committed
``BENCH_*.json`` numbers at the repo root.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def test_every_benchmark_runs_in_tiny_mode(tmp_path):
    bench_files = sorted(BENCH_DIR.glob("bench_*.py"))
    assert len(bench_files) >= 20, "benchmark suite went missing"

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(REPO_ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env["REPRO_BENCH_TINY"] = "1"
    # The smoke run must not touch the committed numbers.
    env["REPRO_BENCH_OUT"] = str(tmp_path)

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(BENCH_DIR),
            # No -qq: it would suppress the "N passed" summary the
            # assertion below parses.
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-30:])
    assert proc.returncode == 0, f"tiny-mode benchmark run failed:\n{tail}"

    # Every benchmark module must actually have been collected and run -
    # "0 collected" also exits 0 under some pytest configurations.
    summary = proc.stdout.splitlines()
    passed = [line for line in summary if " passed" in line]
    assert passed, f"no pytest summary line found:\n{tail}"
    n_passed = int(passed[-1].split(" passed")[0].split()[-1])
    assert n_passed >= len(bench_files), (n_passed, len(bench_files))
