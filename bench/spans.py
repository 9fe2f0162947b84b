"""Spans and counters for the traced benchmark run, plus small statistics.

The traced run replaces nestquad's public functions, as bound in each
calling module, with shims that open a span, call the original and close
the span.  No source file of the package changes: the shims are installed
at run time by ``install`` and taken out again by ``Tracer.remove``.
Spans stay in memory until the run writes them out.

A span name is ``<layer>.<what>``; the layer is the package module that
does the work.  Self time is a span's duration minus the durations of its
child spans (children never overlap, because one thread opens them).
"""

from __future__ import annotations

import collections
import functools
import math
import os
import time

# Optimizer entry points: spans under these are per-iteration work.
OPTIMIZER_OPS = ("nested_optimizer.generate_nested",
                 "nested_optimizer.extend_patterson")
LAYERS = ("orthopoly", "gauss", "nested_optimizer", "sparse_grid",
          "rulestore", "cli")
# Kept out of nested_optimizer.self_s and reported on their own.
_OPTIMIZER_KERNELS = ("nested_optimizer.svd",
                      "nested_optimizer.select_lambda")


class Tracer:
    """Records one span per shimmed call and counters bumped by hooks."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a shim recording a span per call.

        ``name`` is a span name or a callable (args, kwargs) -> name;
        ``after(args, kwargs, result)`` runs when the call returns.
        Missing attributes are skipped, so the shims survive refactors
        that drop a binding.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, shim)
        self._undo.append((owner, attr, fn))

    def remove(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def _eval_name(args, kwargs):
    deriv = kwargs.get("derivatives", args[3] if len(args) > 3 else False)
    return "orthopoly.eval_deriv" if deriv else "orthopoly.eval"


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or ["?"]
    return {"integrate": "cli.integrate",
            "verify": "cli.verify"}.get(argv[0], "cli.other")


def svd_flops(m: int, n: int) -> float:
    """Flops of a thin SVD (U, s, Vt) of an m x n matrix, computed from its
    shape: 6 m n^2 + 20 n^3 for m >= n (R-SVD, Golub & Van Loan)."""
    m, n = max(m, n), min(m, n)
    return 6.0 * m * n * n + 20.0 * n ** 3


def _compositions(total: int, d: int):
    if d == 1:
        yield (total,)
        return
    for last in range(1, total - d + 2):
        for head in _compositions(total - last, d - 1):
            yield head + (last,)


def tensor_points(sizes, d: int, k: int) -> int:
    """Points of all Smolyak tensor blocks before merging, from level sizes."""
    total = 0
    for r in range(max(0, k - d), k):
        for ivec in _compositions(d + r, d):
            total += math.prod(sizes[i - 1] for i in ivec)
    return total


def install(tracer: Tracer):
    """Shim every public nestquad function the workloads reach."""
    import numpy.linalg

    import nestquad
    from nestquad import cli, gauss, rulestore, sparse_grid
    from nestquad import nested_optimizer as opt

    c = tracer.counters

    def on_svd(args, kwargs, result):
        m, n = args[0].shape
        c["svd_flop"] += svd_flops(m, n)

    def on_grid(args, kwargs, grid):
        family, d, k = args[:3]
        c["tensor_points"] += tensor_points(family.sizes, d, k)
        c["nodes"] += grid.node_count

    def on_save(args, kwargs, result):
        c["bytes_written"] += os.path.getsize(args[1])

    def on_cli(args, kwargs, code):
        c["cli_nonzero_exits"] += code != 0

    for owner in (opt, gauss):
        tracer.wrap(owner, "eval_orthonormal", _eval_name)
    for owner in (opt, rulestore, cli):
        tracer.wrap(owner, "recurrence_coefficients", "orthopoly.recurrence")
    for owner in (nestquad, opt, sparse_grid, cli):
        tracer.wrap(owner, "gauss_rule", "gauss.rule")
    for owner in (opt, rulestore, gauss):
        tracer.wrap(owner, "verify_rule", "gauss.verify")
    for owner in (opt, cli, gauss):
        tracer.wrap(owner, "moment_residuals", "gauss.moments")
    for owner in (nestquad, cli):
        tracer.wrap(owner, "generate_nested", OPTIMIZER_OPS[0])
        tracer.wrap(owner, "extend_patterson", OPTIMIZER_OPS[1])
        tracer.wrap(owner, "nested_levels", "sparse_grid.levels")
        tracer.wrap(owner, "gauss_levels", "sparse_grid.levels")
        tracer.wrap(owner, "smolyak_grid", "sparse_grid.build", on_grid)
        tracer.wrap(owner, "save", "rulestore.save", on_save)
        tracer.wrap(owner, "load", "rulestore.load")
        tracer.wrap(owner, "catalog_scan", "rulestore.scan")
    tracer.wrap(rulestore, "load", "rulestore.load")
    tracer.wrap(nestquad, "integrate", "sparse_grid.integrate")
    tracer.wrap(opt, "assemble_residual", "nested_optimizer.assemble_residual")
    tracer.wrap(opt, "assemble_jacobian", "nested_optimizer.assemble_jacobian")
    tracer.wrap(opt, "select_lambda", "nested_optimizer.select_lambda")
    tracer.wrap(numpy.linalg, "svd", "nested_optimizer.svd", on_svd)
    tracer.wrap(cli, "main", _cli_name, on_cli)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def count_attempts(csv_text: str) -> int:
    """Degree attempts in an optimizer log: maximal runs of rows that share
    one alpha2 value (the last column)."""
    attempts = 0
    previous = None
    for line in csv_text.splitlines()[1:]:
        if not line.strip():
            continue
        alpha2 = line.rsplit(",", 1)[1]
        if alpha2 != previous:
            attempts += 1
            previous = alpha2
    return attempts


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values):
    """(p, value) for the highest of p50/p90/p99/p99.9 that has at least ten
    samples beyond it, or None when the sample is too small for p50."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:  # float slack
            return p, quantile(values, p / 100.0)
    return None


def layer_metrics(tracer: Tracer, wall_s: float, iterations: int,
                  restarts: int, attempts: int, rules: int) -> dict:
    """Per-layer metrics of one traced pass lasting ``wall_s`` seconds.

    The layer self times, the svd and lambda kernels and ``bench.other_s``
    partition the traced wall time exactly.
    """
    spans = tracer.spans
    own = self_times(spans)
    total = collections.Counter()
    calls = collections.Counter()
    layer_self = collections.Counter()
    direct_eval = collections.Counter()
    top = 0.0
    for (name, start, end, parent), mine in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        if name not in _OPTIMIZER_KERNELS:
            layer_self[name.split(".", 1)[0]] += mine
        if parent < 0:
            top += end - start
        elif spans[parent][0] in OPTIMIZER_OPS:
            # extension steps evaluate the recurrence inline, not through
            # assemble_residual / assemble_jacobian
            direct_eval[name] += end - start
    c = tracer.counters
    evals = calls["orthopoly.eval"] + calls["orthopoly.eval_deriv"]
    op_s = sum(total[name] for name in OPTIMIZER_OPS)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "orthopoly.eval_calls": calls["orthopoly.eval"],
        "orthopoly.eval_s": total["orthopoly.eval"],
        "orthopoly.eval_deriv_calls": calls["orthopoly.eval_deriv"],
        "orthopoly.eval_deriv_s": total["orthopoly.eval_deriv"],
        "orthopoly.evals_per_iteration": ratio(evals, iterations),
        "gauss.rule_calls": calls["gauss.rule"],
        "gauss.rule_s": total["gauss.rule"],
        "gauss.verify_calls": calls["gauss.verify"],
        "gauss.verify_s": total["gauss.verify"],
        "nested_optimizer.iterations": iterations,
        "nested_optimizer.restarts": restarts,
        "nested_optimizer.attempts": attempts,
        "nested_optimizer.rules_per_attempt": ratio(rules, attempts),
        "nested_optimizer.residual_s":
            total["nested_optimizer.assemble_residual"]
            + direct_eval["orthopoly.eval"],
        "nested_optimizer.jacobian_s":
            total["nested_optimizer.assemble_jacobian"]
            + direct_eval["orthopoly.eval_deriv"],
        "nested_optimizer.lambda_calls": calls["nested_optimizer.select_lambda"],
        "nested_optimizer.lambda_s": total["nested_optimizer.select_lambda"],
        "nested_optimizer.svd_calls": calls["nested_optimizer.svd"],
        "nested_optimizer.svd_s": total["nested_optimizer.svd"],
        "nested_optimizer.svd_gflop": c["svd_flop"] / 1e9,
        "nested_optimizer.s_per_iteration": ratio(op_s, iterations),
        "sparse_grid.levels_s": total["sparse_grid.levels"],
        "sparse_grid.build_s": total["sparse_grid.build"],
        "sparse_grid.tensor_points": c["tensor_points"],
        "sparse_grid.nodes": c["nodes"],
        "sparse_grid.merge_ratio": ratio(c["nodes"], c["tensor_points"]),
        "sparse_grid.integrate_s": total["sparse_grid.integrate"],
        "sparse_grid.integrand_calls": c["integrand_calls"],
        "rulestore.save_calls": calls["rulestore.save"],
        "rulestore.save_s": total["rulestore.save"],
        "rulestore.bytes_written": c["bytes_written"],
        "rulestore.load_calls": calls["rulestore.load"],
        "rulestore.load_s": total["rulestore.load"],
        "rulestore.scan_s": total["rulestore.scan"],
        "cli.calls": sum(calls[n] for n in
                         ("cli.integrate", "cli.verify", "cli.other")),
        "cli.integrate_s": total["cli.integrate"],
        "cli.verify_s": total["cli.verify"],
        "cli.nonzero_exits": c["cli_nonzero_exits"],
        "bench.other_s": wall_s - top,
        "bench.traced_wall_s": wall_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
