"""One workload in one fresh process: set-up, then the timed requests.

    python3 perfbench/pb_worker.py JOB.json RESULT.json

The job names the source directory, the warm-up argument vectors, the
request argument vectors, the mode and the run length. This process never
imports the oracle, so its set-up time and peak memory are the program's.

Modes:
  setup    import ``kronecker.cli`` and answer the warm-ups; report set-up.
  measure  then one pass over the request list, untraced, whose outcomes
           and answers are the ones checked; then, for the run length,
           rounds of repeats, shortest first, of the requests that took at
           most the pass's 90th-percentile latency. Each request's latency
           is the best of its samples, so that a stretch of time in which
           the machine runs slow does not decide p50 and p90. Requests
           above that percentile decide neither and are sent once.
  trace    then one untraced pass and one traced pass of the same list,
           each starting with an empty Galois subgroup table, so that the
           traced pass shows what building it costs.

A pass that would run past the hard deadline counts its remaining requests
as timeouts without sending them, so that the process always ends in
bounded time.
"""

import json
import resource
import statistics
import sys
import time

from pb_client import LIMIT_S, send
from pb_layers import Tracer

DEADLINE_S = 100.0


def _pass(main, requests, deadline):
    """One pass over the list; per request (outcome, latency, stdout, error)."""
    rows = []
    for argv in requests:
        if time.perf_counter() > deadline:
            rows.append(("timeout", LIMIT_S, "", f"not sent: the run reached its {DEADLINE_S} s deadline"))
            continue
        rows.append(send(main, argv))
    return rows


def _repeat(main, requests, first, stop):
    """Best latency and sample count per request after repeating, until
    the clock reads ``stop``, the requests at or below the first pass's
    90th-percentile latency."""
    best = [row[1] for row in first]
    samples = [1] * len(first)
    p90 = statistics.quantiles(best, n=10, method="inclusive")[-1]
    order = sorted((i for i, row in enumerate(first) if row[0] != "timeout" and best[i] <= p90), key=lambda i: best[i])
    while order and time.perf_counter() < stop:
        for i in order:
            if time.perf_counter() >= stop:
                break
            _, latency, _, _ = send(main, requests[i])
            best[i] = min(best[i], latency)
            samples[i] += 1
    return best, samples


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    from kronecker import cli, galois

    warmup = [send(cli.main, argv, limit=DEADLINE_S)[0] for argv in job["warmup"]]
    result = {"setup_s": time.perf_counter() - t0, "warmup": warmup}
    deadline = time.perf_counter() + DEADLINE_S
    if job["mode"] == "measure":
        first = _pass(cli.main, job["requests"], deadline)
        stop = min(time.perf_counter() + job["seconds"], deadline)
        result["first"] = first
        result["best"], result["samples"] = _repeat(cli.main, job["requests"], first, stop)
    elif job["mode"] == "trace":
        galois._subgroup_cache.clear()
        result["untraced"] = _pass(cli.main, job["requests"], deadline)
        galois._subgroup_cache.clear()
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = _pass(cli.main, job["requests"], deadline)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.report()
        result["self_time_sum"] = tracer.self_time_sum()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
