"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(items):
    return [(i["name"], i["plan"], i["keys"], i["dbs"]) for i in items]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_and_differ_across_seeds(workload):
    gen = workloads.GENERATORS[workload]
    kwargs = {"size": 12} if workload == "corpus" else {}
    first = _files(gen(7, **kwargs))
    assert first == _files(gen(7, **kwargs))
    assert first != _files(gen(8, **kwargs))


def test_corpus_matches_the_library_on_plan_shape():
    from spjopt.plans import parse_plan, plan_size
    from spjopt.represent import build_representation
    from spjopt.serialize import plan_file_from_text

    rng = random.Random(3)
    for _ in range(100):
        sig = workloads._rand_signature(rng)
        node = workloads._rand_plan(rng, sig, workloads.CORPUS_MAX_OPERATORS)
        header_sig, body = plan_file_from_text(workloads.header(sig) + workloads.plan_text(node))
        plan = parse_plan(body, header_sig)
        rep, _ = build_representation(plan, header_sig)
        assert workloads.representation_size(node, sig) == len(rep.open.structure.universe)
        assert workloads.count_nodes(body) == plan_size(plan)


def test_keyed_cycles_answers_are_never_empty():
    for seed in range(5):
        assert all(item["answer"] for item in workloads.keyed_cycles(seed))


def test_closed_walk_answer():
    f = [1, 2, 0, 3, 3]  # a 3-cycle, a fixed point, a tail into it
    assert workloads.closed_walk_answer(f, 3) == {"v0", "v1", "v2", "v3"}
    assert workloads.closed_walk_answer(f, 2) == {"v3"}


def test_metric_names_and_counts_match_the_contract():
    e2e = [name for name, _ in run.END_TO_END]
    layers = [name for name, _ in run.per_layer_metrics()]
    for name in e2e + layers:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(e2e) == len(set(e2e)) and 1 <= len(e2e) <= 16
    assert len(layers) == len(set(layers)) and 1 <= len(layers) <= 128
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "spjopt" or name.startswith("spjopt.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_the_original_functions():
    from spjopt import cli, plans
    from spjopt.structures import Signature

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[("spjopt.cli", "main")]
        plan = plans.parse_plan("(join (theta (2 3)) (select (theta (1 2)) E) E)", Signature({"E": 2}))
        plans.print_plan(plan)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    metrics = tracer.metrics()
    # print_plan recurses through its module global: one span per outermost call.
    assert metrics["plans.print_plan.calls"] == 1
    assert metrics["plans.parse_plan.calls"] == 1


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour()


def test_failed_ops_are_recorded_and_charged_the_limit():
    def recurse():
        raise RecursionError("maximum recursion depth exceeded")

    def slow():
        time.sleep(5)
        return 0

    timer = clock.Clock()
    runner = worker.Pass(_FakeCli(recurse), timer, limit_s=0.2)
    timer.start()
    try:
        assert runner.run("optimize", "a", ["optimize"])["error"] == "RecursionError"
        runner.cli = _FakeCli(slow)
        assert runner.run("optimize", "b", ["optimize"])["error"] == "OpTimeout"
        runner.cli = _FakeCli(lambda: 3)
        assert runner.run("degree", "c", ["degree"])["error"] == "exit 3"
        assert runner.run("evaluate", "c", ["evaluate"], upstream_ok=False)["error"] == "UpstreamFailed"
    finally:
        timer.stop()
    timed_out = runner.timed_ops()[1]
    assert 0.2 <= timed_out["seconds"] < 2 and timed_out["scaled_s"] > 0

    limit = worker.OP_LIMIT_S
    result = {
        "op_limit_s": limit,
        "ops": [
            {"kind": "optimize", "scaled_s": 0.5, "ok": True},
            {"kind": "optimize", "scaled_s": 0.1, "ok": False},
            {"kind": "optimize", "scaled_s": 0.2, "ok": True},
            {"kind": "evaluate", "scaled_s": 0.0, "ok": False},
        ],
        "plan_nodes": 1,
        "max_intermediate_rows": 1,
        "peak_rss_mb": 1.0,
    }
    m = run.pass_metrics(result)
    assert m["optimize_s"] == pytest.approx(0.7 + limit)
    assert m["evaluate_s"] == limit
    assert m["optimize_p95_ms"] == limit * 1000.0  # the failure ranks slowest
    assert m["optimize_p50_ms"] == pytest.approx(500.0)
    assert (m["attempted"], m["failed"], m["ok_share"]) == (4, 2, 0.5)


def test_failed_items_are_charged_unless_uncounted():
    failed = {"ok": False}
    items = [
        {"name": "cycle9", "eval_ops": [(failed, "")]},
        {"name": next(iter(workloads.UNCOUNTED)), "eval_ops": [(failed, "")]},
    ]
    charge = worker.FAILURE_CHARGE
    assert worker.check("keyed_cycles", items) == ([], charge, charge)


def test_two_passes_never_share_a_process(tmp_path):
    deadline = time.monotonic() + 120
    results = [
        run.run_worker("corpus", 1, tmp_path, f"p{i}", deadline, "--corpus-size", "3")
        for i in range(2)
    ]
    pids = {r["pid"] for r in results}
    assert len(pids) == 2 and run.os.getpid() not in pids
    assert all(not r["wrong"] and all(op["ok"] for op in r["ops"]) for r in results)
    run._check_distinct(results)


def test_traced_pass_leaves_the_reference_checks_out(tmp_path):
    deadline = time.monotonic() + 120
    spans = tmp_path / "spans.tsv"
    result = run.run_worker("corpus", 1, tmp_path, "traced", deadline, "--corpus-size", "3", "--trace-spans", str(spans))
    assert result["layers"]["cli.main.calls"] == len(result["ops"]) == 15
    # evaluate_naive is the corpus reference; the ops evaluate well-behaved plans.
    assert result["layers"]["plans.evaluate_naive.calls"] == 0
    assert result["spans"] == len(spans.read_text(encoding="utf-8").splitlines()) - 1


def test_clock_scales_by_the_samples_around_an_interval():
    c = clock.Clock()
    c.ends = [1.0, 2.0, 3.0, 4.0]
    c.durations = [0.004, 0.008, 0.008, 0.004]
    wall, scaled = c.measure(1.5, 3.5)  # holds the samples ending at 2 and 3
    assert wall == pytest.approx(2.0 - 0.016)
    assert scaled == pytest.approx(wall * clock.REFERENCE_S / 0.006)
    assert c.measure(5.0, 6.0) == pytest.approx((1.0, 1.0))  # only the sample before: 4 ms
    assert clock.Clock(calibrate=False).measure(0.0, 2.0) == (2.0, 2.0)
