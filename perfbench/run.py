"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload rack-fleet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process

A run repeats seeded episodes of one workload (``scenarios.py``; on
``service`` they cycle through several inputs drawn from the seed) until
``--seconds`` of timed work have been measured, checks every episode's
outputs, and prints a report followed by one JSON line::

    {"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` metrics,
taken from traced episodes that alternate with untraced ones (the
difference of their wall times is the tracing overhead). A per-layer
metric of a layer the workload never calls reads 0.

The gated throughput and step costs are in reference units (``ref``, see
``refclock.py``): host time divided by the time of a fixed kernel run at
the step boundaries, so they hold still while a shared host's speed
wanders. The report also prints them in host seconds
(``server_ticks_per_s``, ``step_ms_p50``, ``step_ms_tail``) and the
simulated quality figures, none of which it gates.

``setup_s`` is the median time a fresh interpreter takes to import the
program (over ``IMPORT_REPEATS`` child processes, each waited for) plus
the median time an episode spends building its inputs and objects before
its first timed call, both in reference units counted as milliseconds
(``refclock.REF_UNIT_S``); the report prints the same sum in host seconds
as ``setup_host_s``. The report, a JSON record with the host
fingerprint, and on traced runs every span, are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

# One process with one thread: keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402 - after the thread limits above

from refclock import REF_UNIT_S  # noqa: E402
from spans import ROOT_SPAN, GcClock, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Units of the end-to-end figures the report prints. BENCHMARK.json gates
#: the ones in reference units, not their host-time twins, whose spread on a
#: shared host is as wide as the largest bound it allows.
UNITS = {
    "setup_s": "s",
    "setup_host_s": "s",
    "server_ticks_per_ref": "1/ref",
    "step_ref_p50": "ref",
    "step_ref_tail": "ref",
    "peak_rss_mb": "MB",
    "server_ticks_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
}

#: Percentile reported as ``step_*_tail``, fixed per workload so that one
#: default-length run leaves at least ten step samples beyond it.
TAIL_PERCENTILE = {"dc-tree": 95.0, "rack-fleet": 90.0, "service": 99.9, "paper-mixes": 90.0}

#: Fresh interpreters timed importing the program; ``setup_s`` takes the
#: median. Each then times the reference kernel, to give its import time in
#: reference units as well.
IMPORT_REPEATS = 3
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import repro, scenarios; s = time.perf_counter() - t; "
    "import refclock; print(s, s / refclock.pass_seconds())"
)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``values`` and the samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _import_program():
    """Import the program from this checkout; returns the scenarios module
    and the median import time of fresh interpreters, in host seconds and
    in reference units."""
    paths = [str(ROOT / "src"), str(HERE)]
    sys.path[:0] = paths[:1]
    import repro
    import scenarios

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro was imported from {source}, not from this checkout")
    seconds, units = [], []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *paths],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        if probe.returncode != 0:
            raise ImportError("a fresh interpreter could not import the program")
        host_s, ref = probe.stdout.split()[-2:]
        seconds.append(float(host_s))
        units.append(float(ref))
    return scenarios, statistics.median(seconds), statistics.median(units)


def _measure(episode_fn, seed: int, seconds: float, trace: bool):
    """Run episodes until ``seconds`` of timed work; on traced runs every
    second episode is traced. Returns (episodes, errors, tracer, gc clock)
    with ``episodes`` a list of ``(traced?, Episode)``."""
    plain, traced = Tracer(False), Tracer(True)
    gc_clock = GcClock()
    episodes = []
    errors: list[str] = []
    measured = 0.0
    run_id = 0
    while True:
        is_traced = trace and run_id % 2 == 1
        if is_traced:
            gc.callbacks.append(gc_clock)
        try:
            episode = episode_fn(seed, traced if is_traced else plain, run_id)
        except Exception:  # a failed operation is reported, not fatal
            traceback.print_exc()
            errors.append(f"episode {run_id} raised")
            break
        finally:
            if is_traced:
                gc.callbacks.remove(gc_clock)
        episodes.append((is_traced, episode))
        measured += episode.wall_s
        run_id += 1
        if measured >= seconds and (not trace or run_id >= 2):
            break
    return episodes, errors, traced, gc_clock


def _end_to_end(
    name: str, plain_eps: list, import_s: float, import_ref: float
) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced episodes, and how the tail was taken."""
    percentile = TAIL_PERCENTILE[name]
    steps = [s for e in plain_eps for s in e.step_s]
    units = [u for e in plain_eps for u in e.step_ref]
    tail, beyond = _nearest_rank(steps, percentile)
    work = sum(e.work for e in plain_eps)
    setup_ref = import_ref + statistics.median(e.setup_ref for e in plain_eps)
    metrics = {
        "setup_s": REF_UNIT_S * setup_ref,
        "server_ticks_per_ref": work / sum(e.wall_ref for e in plain_eps),
        "step_ref_p50": statistics.median(units),
        "step_ref_tail": _nearest_rank(units, percentile)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_host_s": import_s + statistics.median(e.setup_s for e in plain_eps),
        "server_ticks_per_s": work / sum(e.wall_s for e in plain_eps),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_tail": tail * 1e3,
    }
    tail_info = {"percentile": percentile, "samples": len(steps), "beyond": beyond}
    return metrics, tail_info


def _per_layer(episodes: list, traced, gc_clock) -> tuple[dict, dict]:
    """Per-layer metrics averaged over the traced episodes, and the closure
    of layer self times against the traced wall time."""
    ids = {i for i, (is_traced, _) in enumerate(episodes) if is_traced}
    traced_eps = [e for is_traced, e in episodes if is_traced]
    plain_eps = [e for is_traced, e in episodes if not is_traced]
    k = len(ids)
    layer: dict[str, float] = {}
    self_times = traced.self_times(ids)
    for span, total in self_times.items():
        layer["bench.unattributed_s" if span == ROOT_SPAN else f"{span}_s"] = total / k
    for span, count in traced.calls(ids).items():
        if span != ROOT_SPAN:
            layer[f"{span}_calls"] = count / k
    # Spans split by kind also report their family total.
    for family in ("simulation.run_mix", "service.tick"):
        for suffix in ("_s", "_calls"):
            parts = [v for key, v in layer.items() if key.startswith(family + ".") and key.endswith(suffix)]
            if parts:
                layer[family + suffix] = sum(parts)
    for key in traced_eps[0].counts:
        layer[key] = statistics.fmean(e.counts[key] for e in traced_eps)
    wall = traced.wall(ids) / k
    layer["bench.wall_s"] = wall
    layer["bench.unattributed_frac"] = layer.get("bench.unattributed_s", 0.0) / wall
    # The first episode of a process also pays one-time costs (lazy imports,
    # shared caches); leave it out of the untraced baseline when it can be.
    baseline = plain_eps[1:] or plain_eps
    layer["bench.tracing_overhead_s"] = wall - statistics.fmean(e.wall_s for e in baseline)
    layer["python.gc_s"] = gc_clock.seconds / k
    layer["python.gc_collections"] = gc_clock.collections / k
    closure = {"self_times_s": sum(self_times.values()) / k, "traced_wall_s": wall}
    return layer, closure


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    try:
        scenarios, import_s, import_ref = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workloads = {
        "dc-tree": scenarios.dc_tree,
        "rack-fleet": scenarios.rack_fleet,
        "service": partial(scenarios.service, workdir=OUT / f"service-{os.getpid()}"),
        "paper-mixes": scenarios.paper_mixes,
    }
    episodes, errors, traced, gc_clock = _measure(workloads[name], seed, seconds, trace)

    all_eps = [e for _, e in episodes]
    failures = errors + [
        f"episode {i}: {check}"
        for i, e in enumerate(all_eps)
        for check, held in e.checks.items()
        if not held
    ]
    digests: dict[int, set[str]] = {}
    for e in all_eps:
        digests.setdefault(e.variant, set()).add(e.digest)
    if any(len(found) > 1 for found in digests.values()):
        failures.append("digest differs between episodes of one seed and variant")
    attempted = sum(e.steps + len(e.checks) for e in all_eps) + len(errors) + (len(all_eps) > 1)
    failed = len(failures)
    record: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "host": _host(),
        "import_s": import_s,
        "import_ref": import_ref,
        "episodes": len(all_eps),
        "episode_wall_s": [e.wall_s for e in all_eps],
        "episode_wall_ref": [e.wall_ref for e in all_eps],
        "episode_setup_s": [e.setup_s for e in all_eps],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": {str(v): sorted(found) for v, found in sorted(digests.items())},
        "quality": all_eps[0].quality if all_eps else {},
    }
    plain_eps = [e for is_traced, e in episodes if not is_traced]
    if plain_eps and all(e.step_s for e in plain_eps):
        record["metrics"], record["step_ms_tail"] = _end_to_end(
            name, plain_eps, import_s, import_ref
        )
    if any(is_traced for is_traced, _ in episodes):
        record["per_layer"], record["closure"] = _per_layer(episodes, traced, gc_clock)
        OUT.mkdir(parents=True, exist_ok=True)
        traced.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    _print_report(record, spec)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    found = record.get("per_layer" if trace else "metrics", {})
    values = {m["name"]: found.get(m["name"], 0.0 if trace else None) for m in wanted}
    complete = all(v is not None for v in values.values())
    print(
        json.dumps(
            {
                "correct": failed == 0 and complete,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                    if values[m["name"]] is not None
                },
            }
        )
    )
    return 0


def _print_report(record: dict, spec: dict) -> None:
    """Every metric by name and unit, ahead of the final JSON line."""
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"episodes={record['episodes']} git={record['git_sha'][:12]} "
        f"host={json.dumps(record['host'])}"
    )
    rows = [(k, v, UNITS[k]) for k, v in record.get("metrics", {}).items()]
    if record["workload"] == "dc-tree" and "metrics" in record:
        rows.append(("leaf_steps_per_ref", record["metrics"]["server_ticks_per_ref"], "1/ref"))
        rows.append(("leaf_steps_per_s", record["metrics"]["server_ticks_per_s"], "1/s"))
    rows.append(("error_rate", record["failed"] / record["attempted"], "failed/attempted"))
    rows.extend((k, v, "frac") for k, v in record["quality"].items())
    for key, value, unit in rows:
        print(f"  {key:<26} {value:>14.6g} {unit}")
    if "step_ms_tail" in record:
        tail = record["step_ms_tail"]
        print(
            f"  step_ref_tail and step_ms_tail are p{tail['percentile']:g} of "
            f"{tail['samples']} steps, {tail['beyond']} beyond it"
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, value in sorted(record.get("per_layer", {}).items()):
        print(f"  {key:<44} {value:>14.6g} {units.get(key, '')}")
    if "closure" in record:
        closure = record["closure"]
        print(
            f"  closure: layer self times + unattributed = {closure['self_times_s']:.6f} s "
            f"of {closure['traced_wall_s']:.6f} s traced wall"
        )
    for variant, found in record["digests"].items():
        print(f"  digest[{variant}] {' '.join(found)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in a process of its own, so peak memory is its own."""
    results = {}
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            results[workload["name"]] = None
            continue
        results[workload["name"]] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
