"""Tiny-mode switch and output directory for the benchmark suite.

The tier-1 smoke test (``tests/test_benchmarks_smoke.py``) runs every
benchmark with ``REPRO_BENCH_TINY=1`` so bit-rot is caught by pytest at a
cost of seconds, not discovered at bench time. Under tiny mode each
benchmark shrinks its scale knobs (servers, ticks, sweep points) to the
smallest shape that still exercises the full code path; the *numbers* it
prints are then meaningless, which is fine - the smoke test only asserts
the benchmarks run.

Usage::

    from benchmarks._tiny import pick

    DURATION_S = pick(30.0, 2.0)   # full scale, tiny scale

Every file a benchmark writes (``BENCH_*.json``, ``bench-metrics.json``)
goes to :func:`out_path`: the directory named by ``REPRO_BENCH_OUT``, or
the working directory when it is unset.
"""

from __future__ import annotations

import os


def tiny() -> bool:
    """Whether tiny mode is on (checked at import time by each benchmark)."""
    return os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")


def pick(full, small):
    """``full`` normally; ``small`` under ``REPRO_BENCH_TINY=1``."""
    return small if tiny() else full


def out_path(filename: str) -> str:
    """Where a benchmark writes ``filename``: under ``$REPRO_BENCH_OUT``
    (created if missing) or, when unset, in the working directory."""
    directory = os.environ.get("REPRO_BENCH_OUT", "")
    if directory:
        os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, filename)
