"""Seeded request benchmark for ``kronecker`` (see README.md).

    python3 perfbench/run.py --workload factor --seed 1 --seconds 5 --trace 0

Generates the seed's fixed request list and its oracle answers, runs the
list through ``kronecker.cli.main`` in a fresh worker process, checks every
answer, prints one row per request and a summary, and ends with one JSON
line. ``--trace 0`` reports the end-to-end metrics: one pass, then
``--seconds`` of repeats, then more fresh processes for set-up samples.
``--trace 1`` runs an untraced and a traced pass and reports the per-layer
metrics.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench-work"
WORKER_TIMEOUT_S = 150

# Set-up is sampled in fresh processes until there are at least this many
# samples and they add up to at least this many seconds.
SETUP_MIN_SAMPLES = 3
SETUP_MIN_TOTAL_S = 1.5

# Every end-to-end metric is printed; the last JSON line carries the ones
# steady enough across seeds to bound (see README.md, "Metrics").
REPORTED_UNITS = {
    "wall_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "fail_ratio": "ratio",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
END_TO_END = ("ok_ratio", "setup_s", "peak_rss_mb")
FAIL_CAUSES = ("timeout", "refused", "crash", "wrong")
# The causes that the same code on the same seed gives on every run. Whether
# a request close to the limit answers in time depends on how fast the
# machine runs at that moment, so timeouts count in ``fail_ratio`` and
# ``ok_ratio`` but not in the result line's ``failed``.
REPRODUCIBLE_CAUSES = ("refused", "crash", "wrong")


def _compile_sources():
    """Compile the package's bytecode before any timing, so that set-up
    reads compiled modules, as an installed package would, whether or not
    the interpreter may write ``__pycache__`` itself."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "kronecker")],
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )


def _run_worker(job, workdir, tag):
    job_path = workdir / f"job-{tag}.json"
    result_path = workdir / f"result-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "pb_worker.py"), str(job_path), str(result_path)],
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _classify(requests, rows, check):
    """Final outcome per request of one pass: ok, wrong or a failure cause."""
    outcomes, reasons = [], []
    for req, (outcome, _, stdout, error) in zip(requests, rows):
        if outcome == "answered":
            reason = check(req, stdout)
            outcome = "wrong" if reason else "ok"
            error = reason
        outcomes.append(outcome)
        reasons.append(error)
    return outcomes, reasons


def _failures(outcomes):
    """Count per failure cause, and the count of reproducible failures."""
    causes = {c: outcomes.count(c) for c in FAIL_CAUSES}
    return causes, sum(causes[c] for c in REPRODUCIBLE_CAUSES)


def _print_rows(requests, latencies, outcomes, reasons):
    for i, req in enumerate(requests):
        print(f"req {i:03d} {req['kind']:<13} {latencies[i] * 1e3:10.3f} ms {outcomes[i]}")
    for i, req in enumerate(requests):
        if outcomes[i] != "ok":
            label = "WRONG" if outcomes[i] == "wrong" else "FAIL "
            print(f"{label} req {i:03d} {req['kind']} {outcomes[i]}: {reasons[i]} | argv {req['argv']}")


def _end_to_end(requests, result, setup_samples, check):
    outcomes, reasons = _classify(requests, result["first"], check)
    best = result["best"]
    _print_rows(requests, best, outcomes, reasons)
    causes, failed = _failures(outcomes)
    not_ok = sum(causes.values())
    metrics = {
        "wall_s": sum(best),
        "p50_ms": statistics.median(best) * 1e3,
        "p90_ms": statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3,
        "fail_ratio": not_ok / len(requests),
        "ok_ratio": 1.0 - not_ok / len(requests),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = result["samples"]
    print(f"requests {len(requests)}, latency samples {sum(samples)} (per request {min(samples)}-{max(samples)}, median {statistics.median(samples)})")
    print(f"setup samples s: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"not ok {not_ok} of {len(requests)}: " + ", ".join(f"{c} {n}" for c, n in causes.items()))
    print(f"failed (refused, crash or wrong) {failed}")
    for name, unit in REPORTED_UNITS.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    return len(requests), failed, causes["wrong"], {k: {"value": metrics[k], "unit": REPORTED_UNITS[k]} for k in END_TO_END}


def _per_layer(requests, result, check):
    from pb_layers import metric_units

    untraced, traced = result["untraced"], result["traced"]
    outcomes, reasons = _classify(requests, traced, check)
    _print_rows(requests, [row[1] for row in traced], outcomes, reasons)
    untraced_wall = sum(row[1] for row in untraced)
    traced_wall = sum(row[1] for row in traced)
    values = dict(result["layers"], trace_overhead=traced_wall / untraced_wall)
    print(f"traced wall {traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s")
    print(f"sum of self times {result['self_time_sum']:.4f} s (at most the traced wall: {result['self_time_sum'] <= traced_wall})")
    units = metric_units()
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    causes, failed = _failures(outcomes)
    print(f"not ok {sum(causes.values())} of {len(requests)}: " + ", ".join(f"{c} {n}" for c, n in causes.items()))
    return len(requests), failed, causes["wrong"], {k: {"value": values[k], "unit": u} for k, u in units.items()}


def _setup_samples(job, first, workdir):
    samples = [first]
    while len(samples) < SETUP_MIN_SAMPLES or sum(samples) < SETUP_MIN_TOTAL_S:
        samples.append(_run_worker(dict(job, mode="setup"), workdir, f"setup{len(samples)}")["setup_s"])
    return samples


def main(argv=None):
    from pb_requests import WARMUP, WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from pb_oracle import check

    rel = f"{WORK}/{args.workload}-{args.seed}"
    workdir = ROOT / rel
    requests = generate(args.workload, args.seed, rel)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for req in requests:
            for path, text in req["files"].items():
                (ROOT / path).write_text(text, encoding="utf-8")
        job = {
            "src": str(ROOT / "src"),
            "warmup": WARMUP[args.workload],
            "requests": [req["argv"] for req in requests],
            "seconds": args.seconds,
            "mode": "trace" if args.trace else "measure",
        }
        _compile_sources()
        result = _run_worker(job, workdir, "run")
        if args.trace:
            attempted, failed, wrong, metrics = _per_layer(requests, result, check)
        else:
            setup_samples = _setup_samples(job, result["setup_s"], workdir)
            attempted, failed, wrong, metrics = _end_to_end(requests, result, setup_samples, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if (ROOT / WORK).is_dir() and not any((ROOT / WORK).iterdir()):
            (ROOT / WORK).rmdir()
    warm_ok = all(o == "answered" for o in result["warmup"])
    print(f"warm-up outcomes: {', '.join(result['warmup'])}")
    print(f"oracle check: {'no wrong answers' if not wrong else f'{wrong} wrong answers'}")
    print(json.dumps({"correct": wrong == 0 and warm_ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "kronecker" / "cli.py").is_file():
        sys.exit(f"error: no kronecker sources under {ROOT / 'src'}")
    try:
        import sympy  # noqa: F401  (the oracle; not a dependency of the package)
    except ImportError:
        sys.exit("error: sympy is required for the answer oracle; refusing to run unchecked")
    sys.exit(main())
