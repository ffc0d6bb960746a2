"""Run one workload in this fresh interpreter and print what was measured.

    python3 perfbench/worker.py --workload NAME --seed N (--probe | --seconds S [--spans FILE])

The input is the presentation ``run.py`` wrote for this workload and seed.
With ``--probe`` the worker imports the engine, reads and parses the input,
prints ``ready`` and exits: ``run.py`` times that as set-up.  Otherwise it
runs rounds of jobs until the next round would end after ``--seconds``,
times slices of the reference loop before, during and after every round
(see ``reference.py``), checks every output, and prints one JSON object
as its last line.  With ``--spans`` the engine is traced and the spans
are written to that file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from reference import Sampler, bracket
from workloads import ROOT, WORKLOADS, CheckFailure, input_path


def _import_engine():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import anick
    import anick.cli  # noqa: F401  (jobs look up anick.cli.main)

    if src not in Path(anick.__file__).resolve().parents:
        raise SystemExit(f"anick was imported from {anick.__file__}, not from {src}")
    return anick


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    anick = _import_engine()
    tracer = None
    if args.spans is not None:
        from tracer import CHECK, Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer, anick)
    state = workload.prepare(anick, input_path(args.workload, args.seed), args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    jobs = []
    # The reference slices timed before, during and after each round.
    references = []
    sampler = Sampler()
    before = bracket()
    start = time.perf_counter()
    round_index = 0
    while True:
        round_start = time.perf_counter()
        sampler.start()
        for job in workload.round(anick, state):
            if tracer is not None:
                tracer.begin((round_index, job.label))
            error = None
            spent0 = sampler.spent
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = job.run()
            except Exception:
                error = traceback.format_exc(limit=3)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            wall, cpu = wall - (sampler.spent - spent0), cpu - (sampler.spent - spent0)
            if tracer is not None:
                tracer.begin(CHECK)
            if error is None:
                try:
                    job.check(result)
                except CheckFailure as exc:
                    error = str(exc)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            result = None
            jobs.append(
                {"round": round_index, "label": job.label, "wall_s": wall, "cpu_s": cpu,
                 "error": error}
            )
        if round_index == 0:
            # Later rounds would raise the peak only by allocator drift,
            # which grows with the number of rounds a run has time for.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sampler.stop()
        after = bracket()
        references.append(before + sampler.take() + after)
        before = after
        round_index += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    out = {
        "jobs": jobs,
        "peak_rss_kb": peak_rss_kb,
        "references": references,
    }
    if tracer is not None:
        tracer.finish()
        tracer.write_spans(args.spans)
        out["layers"], out["unstable"] = layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
