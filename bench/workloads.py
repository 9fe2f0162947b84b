"""The benchmark's workloads: inputs made at set-up, ops timed in a pass.

Each workload is a list of tasks; a task is a list of ops run in order,
where an op may consume the result of an earlier op of the same pass.  The
seed draws the integrand coefficients and the order of the independent
tasks.  Families and sizes are fixed, because they decide where the work
goes (see README.md for why each was chosen).
"""

from __future__ import annotations

import collections
import contextlib
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nestquad as nq
from nestquad import cli

import gate

SPECS = {
    # Patterson chains 1 -> 3 -> 7 -> 15 and two small pairs (many small
    # iterations, most of them spent by the degree search) beside two large
    # pairs (few iterations on SVDs of up to 1005 x 502).
    "optimizer": {
        "chains": [nq.chebyshev1(), nq.jacobi(0.0, 0.3)],
        "chain_steps": 3,
        "pairs": [(nq.generalized_hermite(1.0), 8), (nq.chebyshev1(), 7),
                  (nq.legendre(), 100), (nq.jacobi(0.0, 0.3), 60)],
    },
    # Smolyak assembly, integration, record I/O and the CLI; the optimizer
    # runs only at set-up.  (d, k, exact node count).
    "grid": {
        "chain_steps": 3,
        "nested": [(8, 7, 17921), (10, 7, 60225), (20, 4, 10001)],
        "gauss": (8, 5, 3905),
        "pairs": 10,
    },
}

# Small sizes of the same shapes, for the benchmark's own tests.
SMOKE = {
    "optimizer": {
        "chains": [nq.legendre()],
        "chain_steps": 2,
        "pairs": [(nq.legendre(), 2), (nq.jacobi(0.0, 0.3), 3)],
    },
    "grid": {
        "chain_steps": 2,
        "nested": [(3, 4, 39), (2, 3, 9)],
        "gauss": (2, 3, 13),
        "pairs": 2,
    },
}


@dataclass(frozen=True)
class Op:
    """One timed call into the package.

    ``run(done, log_path)`` returns the result, reading earlier results
    from ``done`` by op name; ``check(result, done)`` raises GateError on a
    wrong output.  Optimizer ops return (rule or pair, state), receive a
    log path in traced passes, and report the certified degrees they
    return through ``degrees``.
    """

    name: str
    run: Callable
    check: Callable
    needs: tuple = ()
    optimizer: bool = False
    degrees: Callable | None = None


@dataclass
class Workload:
    tasks: list
    counts: collections.Counter    # bumped by the integrand


def _table_for_chain(family, steps: int):
    largest = 2 ** (steps + 1) - 1
    return nq.recurrence_coefficients(family, 4 * largest + 8)


def _extend_op(name, table, seed_rule, needs):
    def base(done):
        return done[needs[0]][0] if needs else seed_rule

    def run(done, log_path):
        return nq.extend_patterson(base(done), table, log_path=log_path)

    def check(result, done):
        rule = result[0]
        if rule.n != 2 * base(done).n + 1:
            raise gate.GateError(f"extension returned {rule.n} nodes")
        gate.check_rule(rule)
        gate.check_nested(base(done), rule)

    return Op(name, run, check, needs, optimizer=True,
              degrees=lambda result: result[0].exactness_degree)


def _pair_op(family, n1):
    table = nq.recurrence_coefficients(family, 4 * n1 + 10)

    def run(done, log_path):
        return nq.generate_nested(n1, table, log_path=log_path)

    def check(result, done):
        pair = result[0]
        if (pair.n1, pair.n2) != (n1, 2 * n1 + 1):
            raise gate.GateError(f"pair has sizes {pair.n1}, {pair.n2}")
        gate.check_pair(pair)

    return Op(f"pair {family.label()} n1={n1}", run, check, optimizer=True,
              degrees=lambda result: (result[0].coarse.exactness_degree
                                      + result[0].fine.exactness_degree))


def _optimizer_tasks(spec):
    tasks = []
    for family in spec["chains"]:
        table = _table_for_chain(family, spec["chain_steps"])
        seed_rule = nq.gauss_rule(table, 1)
        task, needs, n = [], (), 1
        for _ in range(spec["chain_steps"]):
            op = _extend_op(f"extend {family.label()} {n}->{2 * n + 1}",
                            table, seed_rule, needs)
            task.append(op)
            needs, n = (op.name,), 2 * n + 1
        tasks.append(task)
    for family, n1 in spec["pairs"]:
        tasks.append([_pair_op(family, n1)])
    return tasks


def _cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _integrand(coeffs, counts):
    c = np.asarray(coeffs, dtype=float)

    def f(x):
        counts["integrand_calls"] += 1
        return np.exp(np.asarray(x) @ c)

    return f


def _coeffs(rng, d):
    return (rng.uniform(0.1, 0.5, size=d) / math.sqrt(d)).tolist()


def _grid_tasks(spec, rng, workdir, counts):
    family = nq.legendre()
    steps = spec["chain_steps"]
    table = _table_for_chain(family, steps)
    chain = [nq.gauss_rule(table, 1)]
    for _ in range(steps):
        chain.append(nq.extend_patterson(chain[-1], table)[0])
    catalog = os.path.join(workdir, "catalog")
    out = os.path.join(workdir, "out")
    os.makedirs(catalog)
    os.makedirs(out)
    nq.save(nq.make_rule_record(chain[0]),
            os.path.join(catalog, "gauss-legendre-n1.json"))
    for rule in chain[1:]:
        nq.save(nq.make_rule_record(rule, mode="patterson"),
                os.path.join(catalog, f"ext-legendre-n{rule.n}.json"))
    records = []
    for n1 in range(1, spec["pairs"] + 1):
        pair, state = nq.generate_nested(
            n1, nq.recurrence_coefficients(family, 4 * n1 + 10))
        records.append(nq.make_pair_record(pair, iterations=state.iteration))
    pair_path = os.path.join(workdir, "pair.json")
    nq.save(records[-1], pair_path)
    gd, gk, gcount = spec["gauss"]
    grid_base = os.path.join(workdir, "cli-grid")
    code, _ = _cli(["sparse-grid", "--family", "legendre", "--d", str(gd),
                    "--k", str(gk), "--schedule", "gauss",
                    "--out", grid_base])
    if code != 0:
        raise RuntimeError(f"writing the CLI grid exited with {code}")
    depth = max(k for _, k, _ in spec["nested"])

    def scan(done, log_path):
        found = nq.catalog_scan(catalog, verify=True)
        return sorted((e.record.payload for e in found.entries.values()),
                      key=lambda rule: rule.n)

    def check_scan(rules, done):
        if [r.n for r in rules] != [2 ** (i + 1) - 1 for i in range(steps + 1)]:
            raise gate.GateError(f"catalog chain sizes {[r.n for r in rules]}")
        for rule in rules:
            gate.check_rule(rule)
        for inner, outer in zip(rules, rules[1:]):
            gate.check_nested(inner, outer)

    def levels(done, log_path):
        return nq.nested_levels(done["scan"], depth)

    def check_levels(family_, done):
        if family_.depth != depth or not family_.nested:
            raise gate.GateError("level family has the wrong shape")

    head = [Op("scan", scan, check_scan,
               degrees=lambda rules: sum(r.exactness_degree for r in rules)),
            Op("levels", levels, check_levels, needs=("scan",))]
    tasks = []
    for d, k, count in spec["nested"]:
        tasks.append(_build_and_integrate(d, k, count, _coeffs(rng, d),
                                          counts))

    def gauss_levels(done, log_path):
        return nq.gauss_levels(table, gk)

    def gauss_build(done, log_path):
        return nq.smolyak_grid(done["gauss levels"], gd, gk)

    tasks.append([
        Op("gauss levels", gauss_levels, lambda lv, done: None),
        Op(f"build gauss d={gd} k={gk}", gauss_build,
           lambda grid, done: gate.check_grid(grid, gcount),
           needs=("gauss levels",)),
    ])
    tasks.append([_save_op(record, os.path.join(out, f"pair-{i}.json"))
                  for i, record in enumerate(records)])
    coeffs = _coeffs(rng, gd)
    tasks.append([_cli_integrate_op(grid_base + ".json", coeffs)])
    tasks.append([_cli_verify_op(pair_path)])
    return head, tasks


def _build_and_integrate(d, k, count, coeffs, counts):
    name = f"build nested d={d} k={k}"

    def build(done, log_path):
        return nq.smolyak_grid(done["levels"], d, k)

    def integrate(done, log_path):
        return nq.integrate(done[name], _integrand(coeffs, counts))

    return [
        Op(name, build, lambda grid, done: gate.check_grid(grid, count),
           needs=("levels",)),
        Op(f"integrate d={d} k={k}", integrate,
           lambda value, done: gate.check_estimate(value, coeffs),
           needs=(name,)),
    ]


def _save_op(record, path):
    def run(done, log_path):
        nq.save(record, path)

    def check(result, done):
        back = nq.load(path, verify=False).payload
        pair = record.payload
        for got, want in ((back.coarse, pair.coarse), (back.fine, pair.fine)):
            if not (np.array_equal(got.nodes, want.nodes)
                    and np.array_equal(got.weights, want.weights)):
                raise gate.GateError(f"{path} does not round-trip bit-exactly")

    return Op(f"save {os.path.basename(path)}", run, check)


def _cli_integrate_op(grid_path, coeffs):
    def run(done, log_path):
        return _cli(["integrate", "--grid", grid_path, "--function",
                     "product-exponential",
                     "--params", ",".join(repr(c) for c in coeffs)])

    def check(result, done):
        code, text = result
        match = re.search(r"estimate=(\S+)", text)
        if code != 0 or match is None:
            raise gate.GateError(f"cli integrate exited {code}: {text!r}")
        # the CLI prints 13 significant digits
        gate.check_estimate(float(match.group(1)), coeffs)

    return Op("cli integrate", run, check)


def _cli_verify_op(pair_path):
    def run(done, log_path):
        return _cli(["verify", "--in", pair_path])

    def check(result, done):
        code, text = result
        if code != 0 or text.count("PASS") != 2 or "FAIL" in text:
            raise gate.GateError(f"cli verify exited {code}")

    return Op("cli verify", run, check)


def setup(name: str, spec: dict, seed: int, workdir: str) -> Workload:
    """Make a workload's inputs; the seed draws coefficients and task order."""
    rng = np.random.default_rng(seed)
    counts = collections.Counter()
    head = []
    if name == "grid":
        head, tasks = _grid_tasks(spec, rng, workdir, counts)
    else:
        tasks = _optimizer_tasks(spec)
    ordered = [tasks[i] for i in rng.permutation(len(tasks))]
    if head:
        ordered.insert(0, head)
    return Workload(ordered, counts)
