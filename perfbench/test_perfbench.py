"""Tests of the benchmark's own code: generator, oracle, client and tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import random
import signal
import sys
import time

import pytest

pytest.importorskip("sympy")

import pb_layers  # noqa: E402
import pb_oracle  # noqa: E402
import pb_requests  # noqa: E402
import pb_worker  # noqa: E402
import run  # noqa: E402
from pb_client import send  # noqa: E402
from kronecker import cli, galois  # noqa: E402


@pytest.mark.parametrize("workload", ["factor", "numberfield"])
def test_same_seed_same_argument_vectors(workload):
    a = pb_requests.generate(workload, 7)
    b = pb_requests.generate(workload, 7)
    assert [r["argv"] for r in a] == [r["argv"] for r in b]
    assert [r["expect"] for r in a] == [r["expect"] for r in b]
    assert [r["argv"] for r in a] != [r["argv"] for r in pb_requests.generate(workload, 8)]
    assert len(a) >= 100


def test_same_seed_same_resultant_requests():
    def draw(seed):
        rng = random.Random(seed)
        mix = pb_requests.MIX["resultant"]
        return [pb_requests._gen_resultant(rng, kind, mix[kind][0][0], f"work/r{i}.json") for i, kind in enumerate(mix)]

    assert draw("s") == draw("s")


def test_positional_expressions_follow_double_dash():
    for req in pb_requests.generate("factor", 3):
        assert req["argv"][1] == "--"


def test_term_maps_compare_exactly_and_up_to_units():
    assert pb_oracle.terms("-3*x^2*y + 1/2*z - 4") == pb_oracle.terms("1/2*z - 4 - 3*y*x^2")
    assert pb_oracle.terms("x - x") == {}
    assert pb_oracle._normal(pb_oracle.terms("-2*x + 4*y")) == pb_oracle._normal(pb_oracle.terms("1/3*x - 2/3*y"))
    assert pb_oracle._normal(pb_oracle.terms("x + y")) != pb_oracle._normal(pb_oracle.terms("x - y"))


def test_class_number_by_forms():
    known = {-3: 1, -5: 2, -6: 2, -23: 3, -26: 6, -41: 8, -47: 5, -43: 1}
    assert {d: pb_oracle.class_number_by_forms(d) for d in known} == known


def _answer(req):
    outcome, _, stdout, _ = send(cli.main, req["argv"])
    assert outcome == "answered"
    return stdout


def test_correct_answer_passes_and_tampered_answer_is_wrong():
    req = next(r for r in pb_requests.generate("factor", 1) if r["kind"] == "factor-uni")
    stdout = _answer(req)
    assert pb_oracle.check(req, stdout) == ""
    doc = json.loads(stdout)
    doc["factors"][0][1] += 1
    row = ("answered", 0.01, json.dumps(doc), "")
    outcomes, reasons = run._classify([req], [row], pb_oracle.check)
    assert outcomes == ["wrong"] and reasons[0]


def test_tampered_galois_order_is_wrong():
    req = {"kind": "galois3", "argv": ["galois", "--", "x^3 - 3*x + 1"], "files": {}, "expect": 3}
    stdout = _answer(req)
    assert pb_oracle.check(req, stdout) == ""
    doc = json.loads(stdout)
    doc["order"] = 6
    assert pb_oracle.check(req, json.dumps(doc))


def _eliminate(*texts):
    req = {"kind": "eliminate", "argv": ["eliminate", "--", *texts], "files": {}, "expect": None}
    return req, json.loads(_answer(req))


def test_eliminate_check_needs_every_component():
    req, doc = _eliminate("x*y - z", "x*z - y^2")  # the twisted cubic and the x-axis
    assert pb_oracle.check(req, json.dumps(doc)) == ""
    part = doc["parts"][0]
    missing = dict(doc, parts=[dict(part, resolvent="x^2 - y", factors=["x^2 - y"])])
    assert "missing" in pb_oracle.check(req, json.dumps(missing))
    assert pb_oracle.check(req, json.dumps(dict(doc, parts=[], components=[])))
    assert pb_oracle.check(req, json.dumps(dict(doc, empty=True)))
    stray = dict(doc, parts=[dict(part, factors=[*part["factors"], "x - 7*y + 3*z - 5"])])
    assert "no codimension-2 piece" in pb_oracle.check(req, json.dumps(stray))


def test_eliminate_check_substitutes_components_in_input_coordinates():
    req, doc = _eliminate("-2*x*y - z^2", "3*x*z - 2*x")  # a wrong answer of the program
    assert "does not satisfy" in pb_oracle.check(req, json.dumps(doc))
    req, doc = _eliminate("x^2 + y^2 + z^2 - 1", "x + y + z")
    comp = doc["components"][0]
    # the same component written in other coordinates, as after a redraw
    moved = dict(comp, phi="2*x^2 + 2*x*z + 2*z^2 - 1")
    assert pb_oracle.check(req, json.dumps(dict(doc, components=[moved]))) == ""


def test_forced_timeout_is_counted_and_next_request_unaffected():
    def spin(argv):
        while True:
            pass

    previous = signal.getsignal(signal.SIGALRM)
    outcome, latency, _, _ = send(spin, ["factor", "--", "x"], limit=0.2)
    assert (outcome, latency) == ("timeout", 0.2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    req = {"kind": "factor-uni", "argv": ["factor", "--", "x^2 - 1"], "files": {}, "expect": [["x - 1", 1], ["x + 1", 1]]}
    outcome, latency, stdout, _ = send(cli.main, req["argv"], limit=5.0)
    assert outcome == "answered" and latency < 5.0
    assert pb_oracle.check(req, stdout) == ""


def test_timeouts_stay_out_of_the_reproducible_failures():
    causes, failed = run._failures(["ok", "timeout", "timeout", "crash", "wrong", "refused", "ok"])
    assert causes == {"timeout": 2, "refused": 1, "crash": 1, "wrong": 1}
    assert failed == 3


def test_crash_and_refusal_are_classified():
    def boom(argv):
        raise TypeError("escaped")

    assert send(boom, [])[0] == "crash"
    assert send(cli.main, ["no-such-command"])[0] == "crash"  # argparse exits with 2
    assert send(cli.main, ["galois", "--", "x^2 - 1"])[0] == "refused"  # reducible


def _kronecker_bindings():
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name.startswith("kronecker") and mod is not None
        for key, value in vars(mod).items()
    }


def test_wrappers_are_restored_and_self_times_fit_in_wall():
    from kronecker.polyring import MultiPoly, UniPoly

    before = _kronecker_bindings()
    methods = (MultiPoly.__dict__["div_exact"], UniPoly.__dict__["divmod"])
    tracer = pb_layers.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[("kronecker.cli", "main")]
        assert sys.modules["kronecker.galois"].charpoly is not before[("kronecker.galois", "charpoly")]
        t0 = time.perf_counter()
        for argv in (["factor", "--", "x^4 - 1"], ["resultant", "--", "x^2*y + z", "x*z - y", "x"], ["galois", "--", "x^3 - 2"]):
            assert send(cli.main, argv)[0] == "answered"
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    after = _kronecker_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert (MultiPoly.__dict__["div_exact"], UniPoly.__dict__["divmod"]) == methods
    report = tracer.report()
    assert report["cli.main.calls"] == 3
    assert report["kernel.mul_terms.calls"] > 0 and report["kernel.mul_terms.term_pairs"] > 0
    assert report["polyring.resultant.calls"] >= 1
    assert set(report) | {"trace_overhead"} == set(pb_layers.metric_units())
    assert 0 < tracer.self_time_sum() <= wall


def test_repeats_keep_the_best_latency_and_skip_timeouts_and_the_tail():
    calls = []

    def main(argv):
        calls.append(argv[1])
        return 0

    requests = [[f"r{i}"] for i in range(12)]
    first = [("answered", 0.01 * (i + 1), "", "") for i in range(11)] + [("timeout", 5.0, "", "")]
    best, samples = pb_worker._repeat(main, requests, first, time.perf_counter() + 0.2)
    assert "r11" not in calls and samples[11] == 1 and best[11] == 5.0  # timed out
    assert "r10" not in calls and samples[10] == 1  # above the 90th percentile
    assert all(n > 1 for n in samples[:10])
    assert all(b < f[1] for b, f in zip(best[:10], first))


def test_traced_cold_galois_shows_the_subgroup_table():
    saved = dict(galois._subgroup_cache)
    galois._subgroup_cache.clear()
    tracer = pb_layers.Tracer()
    tracer.install()
    try:
        assert send(cli.main, ["galois", "--", "x^4 - 2"])[0] == "answered"  # the S4 table
    finally:
        tracer.uninstall()
        galois._subgroup_cache.update(saved)
    report = tracer.report()
    assert report["galois.subgroups.calls"] >= 1 and report["galois.subgroups.self_s"] > 0
