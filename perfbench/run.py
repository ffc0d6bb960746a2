"""Benchmark for the anick engine: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the engine is imported from the
checkout's ``src``.  Each workload runs in fresh worker processes, one at
a time (a closed loop with one client).  With ``--trace 0`` the benchmark
times set-up in several fresh interpreters, then one worker runs jobs
for ``--seconds`` and the end-to-end metrics are printed.  Every set-up
and every round is also rescaled to a fixed host speed by the reference
loop timed around it (see ``reference.py``).  With
``--trace 1`` an untraced and a traced worker each get half the time and
the per-layer metrics are printed, with the tracing overhead.

Every job's output is checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record (samples, quartiles, run metadata) goes to
``.perfbench_results/`` in the checkout.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import at_reference_speed, bracket
from tracer import PER_LAYER_UNITS
from workloads import RESULTS, ROOT, WORKLOADS, input_path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 11

# The JSON line's metrics.  Times are medians at reference speed: the
# host's slow phases move plain times of whole runs by up to a factor of
# four, and rescaling by the reference loop timed around and during each
# sample takes most of that out (see reference.py and NOTES.md).
END_TO_END_UNITS = {
    "round_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not in the JSON line's metrics: plain times
# swing with the host's phases, failed_ratio is zero on a correct engine
# (the line's ``failed``/``attempted`` carry it), and job_p90_s exists
# only where ten samples lie above it.
REPORTED_ONLY_UNITS = {
    "round_s": "s",
    "slice_s": "s",
    "setup_plain_s": "s",
    "job_s": "s",
    "job_cpu_s": "s",
    "job_p90_s": "s",
    "failed_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_deadline_s(seconds: float) -> float:
    """How long one workload's run may take: its workers, probes and margin."""
    return 3 * seconds + 60


def _worker_command(workload: str, seed: int) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def probe_setup(workload: str, seed: int, deadline: float) -> float:
    """Seconds from launching a fresh interpreter until it is ready for a job."""
    command = _worker_command(workload, seed) + ["--probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def run_worker(
    workload: str, seed: int, seconds: float, deadline: float, spans: Path | None = None
) -> dict:
    command = _worker_command(workload, seed) + ["--seconds", str(seconds)]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=_remaining(deadline)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median as ``value``, with quartiles and sample count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def p90_with_support(values: list[float]) -> float | None:
    """The 90th percentile, if at least ten samples lie above it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def round_times(worker: dict) -> list[float]:
    """Wall seconds of each round: one job, or one sweep on cli-sweep."""
    rounds = [0.0] * len(worker["references"])
    for job in worker["jobs"]:
        rounds[job["round"]] += job["wall_s"]
    return rounds


def rounds_at_reference_speed(worker: dict) -> list[float]:
    return [at_reference_speed(t, slices)
            for t, slices in zip(round_times(worker), worker["references"])]


def end_to_end(worker: dict, setup: list[float], setup_plain: list[float]) -> dict:
    jobs = worker["jobs"]
    walls = [j["wall_s"] for j in jobs]
    stats = {
        "round_ref_s": summarize(rounds_at_reference_speed(worker)),
        "setup_s": summarize(setup),
        "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024, "n": 1},
        "round_s": summarize(round_times(worker)),
        "slice_s": summarize([s for slices in worker["references"] for s in slices]),
        "setup_plain_s": summarize(setup_plain),
        "job_s": summarize(walls),
        "job_cpu_s": summarize([j["cpu_s"] for j in jobs]),
        "failed_ratio": {"value": sum(j["error"] is not None for j in jobs) / len(jobs),
                         "n": len(jobs)},
    }
    p90 = p90_with_support(walls)
    if p90 is not None:
        stats["job_p90_s"] = {"value": p90, "n": len(walls)}
    return stats


def git_state() -> dict:
    """HEAD and a dirty flag, or nulls when the checkout is not a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def probe_setups(name: str, seed: int, count: int, deadline: float) -> list[tuple]:
    """``count`` set-up times, each with the reference slices timed around it."""
    probes = []
    before = bracket()
    for _ in range(count):
        elapsed = probe_setup(name, seed, deadline)
        after = bracket()
        probes.append((elapsed, before + after))
        before = after
    return probes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + run_deadline_s(seconds)
    path = input_path(name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(workload.input_text(seed), encoding="utf-8")

    record = {"workload": name, "params": workload.params, "trace": trace}
    if not trace:
        # One untimed probe fills __pycache__; the timed ones are split
        # around the worker so they sample two moments of the run.
        probe_setup(name, seed, deadline)
        probes = probe_setups(name, seed, SETUP_PROBES // 2, deadline)
        worker = run_worker(name, seed, seconds, deadline)
        probes += probe_setups(name, seed, SETUP_PROBES - SETUP_PROBES // 2, deadline)
        record["end_to_end"] = end_to_end(
            worker, [at_reference_speed(*p) for p in probes], [p[0] for p in probes]
        )
        record["setup_probes"] = [{"seconds": t, "slices": slices} for t, slices in probes]
        workers = [worker]
    else:
        spans = RESULTS / f"{name}-seed{seed}-spans.jsonl"
        plain = run_worker(name, seed, seconds / 2, deadline)
        traced = run_worker(name, seed, seconds / 2, deadline, spans)
        layers = dict(traced["layers"])
        layers["trace.round_s"] = statistics.median(rounds_at_reference_speed(traced))
        layers["trace.overhead_s"] = layers["trace.round_s"] - statistics.median(
            rounds_at_reference_speed(plain)
        )
        record["per_layer"] = layers
        record["unstable_counts"] = traced["unstable"]
        record["spans"] = {"file": str(spans.relative_to(ROOT)), "count": traced["spans"]}
        workers = [plain, traced]
    jobs = [j for w in workers for j in w["jobs"]]
    record["attempted"] = len(jobs)
    record["errors"] = [f"{j['label']}: {j['error']}" for j in jobs if j["error"]]
    record["failed"] = len(record["errors"])
    record["jobs"] = [{k: j[k] for k in ("round", "label", "wall_s", "cpu_s")} for j in jobs]
    record["rounds"] = [
        {"wall_s": t, "ref_s": at_reference_speed(t, slices), "slices": slices}
        for w in workers for t, slices in zip(round_times(w), w["references"])
    ]
    return record


def metrics_of(record: dict) -> dict:
    if record["trace"]:
        return {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    return {
        name: {"value": record["end_to_end"][name]["value"], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def check_anchors(record: dict) -> bool:
    """Traced runs must reproduce the pinned exact counts."""
    if not record["trace"]:
        return True
    pinned = WORKLOADS[record["workload"]].anchors
    wrong = {k: (record["per_layer"][k], v) for k, v in pinned.items()
             if record["per_layer"][k] != v}
    for name, (got, want) in wrong.items():
        print(f"{record['workload']:13} ANCHOR {name} = {got}, pinned {want}")
    return not wrong


def print_summary(record: dict) -> None:
    name = record["workload"]
    if record["trace"]:
        for metric, unit in PER_LAYER_UNITS.items():
            print(f"{name:13} {metric:32} {record['per_layer'][metric]:>14.6g} {unit}")
        if record["unstable_counts"]:
            print(f"{name:13} counts changed between rounds: {record['unstable_counts']}")
    else:
        units = END_TO_END_UNITS | REPORTED_ONLY_UNITS
        for metric, stat in record["end_to_end"].items():
            spread = f"  q1={stat['q1']:.6g} q3={stat['q3']:.6g}" if "q1" in stat else ""
            print(f"{name:13} {metric:16} {stat['value']:>12.6g} {units[metric]:5}"
                  f" n={stat['n']}{spread}")
    for error in record["errors"][:5]:
        print(f"{name:13} FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anick" / "__init__.py").is_file():
        print(f"error: no engine sources at {ROOT / 'src' / 'anick'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git": git_state(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "closed loop, one client, one workload at a time",
    }
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_summary(record)
            records.append(record)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(
        json.dumps({"meta": meta, "workloads": records}, indent=1) + "\n", encoding="utf-8"
    )
    if len(records) == 1:
        metrics = metrics_of(records[0])
    else:
        metrics = {
            f"{r['workload']}.{metric}": value
            for r in records for metric, value in metrics_of(r).items()
        }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    unstable = any(r.get("unstable_counts") for r in records)
    anchors_ok = all(check_anchors(r) for r in records)
    print(json.dumps({
        "correct": failed == 0 and not unstable and anchors_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
