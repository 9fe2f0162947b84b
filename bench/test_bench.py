"""Tests of the benchmark's own logic: the gate, the helpers, the traced
run's bookkeeping and a tiny smoke configuration of each workload.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nestquad as nq  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
# Added by the worker around the traced pass, not by layer_metrics.
_RUN_LEVEL = {"setup.import_s", "bench.trace_overhead_s"}


def _legendre_table():
    return nq.recurrence_coefficients(nq.legendre(), 20)


def test_gate_accepts_gauss_rule_and_rejects_one_perturbed_weight():
    rule = nq.gauss_rule(_legendre_table(), 5)
    gate.check_rule(rule)
    weights = rule.weights.copy()
    weights[2] *= 1.0 + 1e-9
    bad = types.SimpleNamespace(
        family=rule.family, nodes=rule.nodes, weights=weights,
        exactness_degree=rule.exactness_degree,
        residual_norm=rule.residual_norm, n=rule.n)
    with pytest.raises(gate.GateError, match="fresh residual"):
        gate.check_rule(bad)


def test_gate_fresh_residual_matches_package_verification():
    rule = nq.gauss_rule(_legendre_table(), 7)
    ours = gate.fresh_residual(rule, 13)
    theirs = nq.verify_rule(rule, _legendre_table(), 13).norm
    assert abs(ours - theirs) < 1e-14


def test_gate_rejects_grid_with_one_node_missing():
    grid = nq.smolyak_grid(nq.gauss_levels(_legendre_table(), 3), 2, 3)
    gate.check_grid(grid, 13)
    short = types.SimpleNamespace(nodes=grid.nodes[1:],
                                  weights=grid.weights[1:])
    with pytest.raises(gate.GateError, match="12 nodes, expected 13"):
        gate.check_grid(short, 13)


def test_gate_checks_estimate_against_closed_form():
    coeffs = [0.2, 0.3]
    truth = gate.product_exponential_truth(coeffs)
    gate.check_estimate(truth * (1 + 1e-9), coeffs)
    with pytest.raises(gate.GateError):
        gate.check_estimate(truth * (1 + 1e-4), coeffs)


def test_quantile_matches_statistics_inclusive():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for q, want in zip((0.25, 0.5, 0.75),
                       statistics.quantiles(xs, n=4, method="inclusive")):
        assert spans.quantile(xs, q) == pytest.approx(want)
    assert spans.quantile([5.0], 0.9) == 5.0
    with pytest.raises(ValueError):
        spans.quantile([], 0.5)


def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail_percentile(list(range(19))) is None
    assert spans.tail_percentile(list(range(20)))[0] == 50.0
    assert spans.tail_percentile(list(range(100)))[0] == 90.0
    p, value = spans.tail_percentile(list(range(1000)))
    assert p == 99.0 and value == pytest.approx(989.01)


def test_self_times_subtract_direct_children():
    hand = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
            ["d", 5.0, 9.0, 0], ["e", 11.0, 12.0, -1]]
    assert spans.self_times(hand) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_count_attempts_counts_runs_of_one_alpha2():
    rows = ["iteration,residual_norm,newton_decrement,c_k,lambda,alpha2"]
    for i, alpha2 in enumerate([23, 23, 22, 22, 22, 23, 22], start=1):
        rows.append(f"{i},1e-3,1e-3,1e3,1e-9,{alpha2}")
    assert spans.count_attempts("\n".join(rows) + "\n") == 4
    assert spans.count_attempts(rows[0] + "\n") == 0


def test_layer_metrics_partition_the_traced_wall_time():
    tracer = spans.Tracer()
    tracer.spans.extend([
        ["nested_optimizer.extend_patterson", 0.0, 6.0, -1],
        ["orthopoly.eval", 0.5, 1.0, 0],
        ["orthopoly.eval_deriv", 1.0, 2.0, 0],
        ["nested_optimizer.svd", 2.0, 4.0, 0],
        ["nested_optimizer.select_lambda", 4.0, 4.5, 0],
        ["rulestore.scan", 6.5, 8.0, -1],
        ["rulestore.load", 6.6, 7.6, 5],
        ["gauss.verify", 7.0, 7.5, 6],
    ])
    m = spans.layer_metrics(tracer, 10.0, iterations=4, restarts=0,
                            attempts=2, rules=1)
    parts = [m[f"{layer}.self_s"] for layer in spans.LAYERS]
    parts += [m["nested_optimizer.svd_s"], m["nested_optimizer.lambda_s"],
              m["bench.other_s"]]
    assert sum(parts) == pytest.approx(10.0)
    assert m["bench.other_s"] == pytest.approx(2.5)
    assert m["nested_optimizer.self_s"] == pytest.approx(2.0)
    assert m["nested_optimizer.residual_s"] == pytest.approx(0.5)
    assert m["nested_optimizer.jacobian_s"] == pytest.approx(1.0)
    assert m["orthopoly.evals_per_iteration"] == pytest.approx(0.5)
    assert m["nested_optimizer.rules_per_attempt"] == pytest.approx(0.5)
    assert m["rulestore.self_s"] == pytest.approx(1.0)
    assert m["gauss.verify_s"] == pytest.approx(0.5)


def test_computed_counts_from_shapes():
    # sizes [1, 3], d = 2, k = 2: blocks (1,1), (2,1), (1,2)
    assert spans.tensor_points([1, 3], 2, 2) == 1 + 3 + 3
    assert spans.svd_flops(4, 2) == spans.svd_flops(2, 4) == 256.0


def test_benchmark_json_names_every_per_layer_metric():
    layer_names = set(spans.layer_metrics(spans.Tracer(), 1.0, 0, 0, 0, 0))
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert declared == layer_names | _RUN_LEVEL
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.SPECS) == list(workloads.SMOKE)


def test_capped_op_is_marked_and_does_not_hang():
    def slow(done, log_path):
        time.sleep(5.0)

    wl = workloads.Workload([[
        workloads.Op("slow", slow, lambda result, done: None),
        workloads.Op("after", lambda done, log: 1, lambda r, d: None,
                     needs=("slow",)),
    ]], counts=collections.Counter())
    start = time.monotonic()
    summary = worker.run_pass(wl, deadline=time.monotonic() + 0.3)
    assert time.monotonic() - start < 2.0
    assert [r["status"] for r in summary["records"]] == ["capped", "skipped"]


def test_failed_gate_is_counted():
    def wrong(result, done):
        raise gate.GateError("wrong on purpose")

    wl = workloads.Workload([[workloads.Op("x", lambda d, l: 1, wrong)]],
                            counts=collections.Counter())
    summary = worker.run_pass(wl, deadline=time.monotonic() + 10.0)
    assert summary["records"][0]["status"] == "gate"


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_workload_untraced_and_traced(name, tmp_path):
    spec = workloads.SMOKE[name]
    wl = workloads.setup(name, spec, seed=3, workdir=str(tmp_path))
    deadline = time.monotonic() + 120.0
    plain = worker.run_pass(wl, deadline)
    assert [r for r in plain["records"] if r["status"] != "ok"] == []
    original = nq.smolyak_grid
    log_dir = tmp_path / "logs"
    log_dir.mkdir()
    traced = worker.run_pass(wl, deadline, spans.Tracer(), str(log_dir))
    assert nq.smolyak_grid is original, "shims must be removed"
    assert [r for r in traced["records"] if r["status"] != "ok"] == []
    assert traced["degree_sum"] == plain["degree_sum"] > 0
    assert traced["iterations"] == plain["iterations"]
    m = traced["layers"]
    parts = [m[f"{layer}.self_s"] for layer in spans.LAYERS]
    parts += [m["nested_optimizer.svd_s"], m["nested_optimizer.lambda_s"],
              m["bench.other_s"]]
    assert sum(parts) == pytest.approx(traced["wall_s"], abs=1e-9)
    if name == "grid":
        assert m["sparse_grid.nodes"] == sum(
            count for _, _, count in spec["nested"]) + spec["gauss"][2]
        assert m["sparse_grid.integrand_calls"] == sum(
            count for _, _, count in spec["nested"])
        assert m["rulestore.save_calls"] == spec["pairs"]
        assert (m["cli.calls"], m["cli.nonzero_exits"]) == (2, 0)
        assert m["nested_optimizer.iterations"] == 0
    else:
        ops = sum(len(task) for task in wl.tasks)
        assert m["nested_optimizer.attempts"] >= ops
        assert m["nested_optimizer.svd_calls"] == m["nested_optimizer.iterations"]
        assert m["orthopoly.evals_per_iteration"] >= 2.0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "2", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    proc = _run(ROOT, "--workload", "grid", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "optimizer", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
