"""Command-line front end for generating, extending, verifying, storing,
and assembling quadrature rules.

Exit codes: 0 success, 1 usage or unsupported request (including an
integrand that is not finite at a node), 2 optimizer failure, 3 input/output
failure, 4 missing catalog dependency, 5 verification failure.  All commands
run headlessly and print deterministic output for a given set of flags.
Errors print as ``error: <message>`` lines on stderr and library warnings
as ``warning: <message>`` lines.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time
import warnings

import numpy as np

from .errors import (
    CapacityError,
    ConvergenceError,
    EvaluationError,
    FeasibilityError,
    IntegrityError,
    NumericalError,
    ParameterError,
    SchemaError,
    UnsupportedFamilyError,
)
from .gauss import (
    QuadratureRule,
    circle_theorem_deviation,
    gauss_rule,
)
from .nested_optimizer import (
    OptimizerConfig,
    extend_patterson,
    generate_nested,
    prune_negligible,
)
from .nested_optimizer import _new_nodes, _start_degree
from .orthopoly import (
    WeightFamily,
    chebyshev1,
    generalized_hermite,
    generalized_laguerre,
    jacobi,
    legendre,
    recurrence_coefficients,
)
from .rulestore import (
    catalog_scan,
    load,
    make_pair_record,
    make_rule_record,
    save,
    verify_record,
    write_rule_csv,
)
from .sparse_grid import (
    gauss_levels,
    nested_levels,
    read_grid_json,
    smolyak_grid,
    write_grid_csv,
    write_grid_json,
)
from .sparse_grid import (
    _chain_schedule,
    _embedded,
    _node_values,
    _weighted_sum,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3
EXIT_MISSING = 4
EXIT_VERIFY = 5


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class MissingDependencyError(Exception):
    """A required catalog entry is absent; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_params(params: str | None) -> list:
    """The numbers of a comma-separated --params flag; none when absent."""
    if not params:
        return []
    try:
        return [float(p) for p in params.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --params {params!r}: {exc}") from exc


def _parse_family(name: str, params: str | None) -> WeightFamily:
    """Resolve a family flag such as "jacobi" + "0,0.3" or "hermite-rho1".

    The -rhoX suffix on hermite/laguerre is shorthand for a single shape
    parameter; it cannot be combined with --params.
    """
    text = name.strip().lower()
    values = _parse_params(params)
    suffix_rho = None
    if "-rho" in text:
        text, _, tail = text.partition("-rho")
        try:
            suffix_rho = float(tail)
        except ValueError as exc:
            raise UsageError(f"bad family suffix -rho{tail!r}") from exc
        if values:
            raise UsageError("give either a -rho suffix or --params, not both")
        values = [suffix_rho]

    if text == "legendre":
        if values:
            raise UsageError("legendre takes no parameters")
        return legendre()
    if text in ("chebyshev", "chebyshev1"):
        if values:
            raise UsageError("chebyshev takes no parameters")
        return chebyshev1()
    if text == "jacobi":
        if len(values) != 2:
            raise UsageError("jacobi needs --params alpha,beta")
        return jacobi(values[0], values[1])
    if text in ("hermite", "generalized_hermite"):
        if len(values) > 1:
            raise UsageError("hermite takes at most one rho parameter")
        return generalized_hermite(values[0] if values else 0.0)
    if text in ("laguerre", "generalized_laguerre"):
        if len(values) > 1:
            raise UsageError("laguerre takes at most one rho parameter")
        return generalized_laguerre(values[0] if values else 0.0)
    raise UsageError(f"unknown family {name!r}")


def _parse_n1_list(text: str) -> list:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --n1 {text!r}: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise UsageError("--n1 needs positive integers")
    return values


def _table(family: WeightFamily, n: int):
    """Recurrence table for an n-node rule, through degree 2n - 1: the
    degree of a Gauss rule's certificate, and the highest a search's
    upward probe tries, since no n-node rule is exact beyond it."""
    return recurrence_coefficients(family, 2 * n - 1)


def _save_in(directory, record):
    """Save ``record`` in ``directory``, made if missing, under a name from
    its catalog key: pair-, ext- or gauss- by mode, the family kind with
    its parameters or a custom family's digest, and the coarse size of a
    pair or the size of a rule, as in ext-jacobi_0.0_0.3-n3.json.  Records
    of two families of one kind never share a name."""
    kind, params, n1, n2, mode = record.key
    prefix = {"kronrod": "pair", "patterson": "ext", "gauss": "gauss"}[mode]
    name = "_".join([kind, *map(str, params)])
    os.makedirs(directory, exist_ok=True)
    save(record,
         os.path.join(directory, f"{prefix}-{name}-n{n1 or n2}.json"))


# ---------------------------------------------------------------- generate

def _derive_log_path(log, n1, many):
    if log is None:
        return None
    if not many:
        return log
    root, ext = os.path.splitext(log)
    return f"{root}-n{n1}{ext or '.csv'}"


def cmd_generate(args) -> int:
    family = _parse_family(args.family, args.params)
    n1_list = _parse_n1_list(args.n1)
    overrides = {}
    if args.eps is not None:
        overrides["epsilon"] = args.eps
    if args.alpha2_init is not None:
        overrides["alpha2_initial"] = args.alpha2_init
    if args.allow_negative_weights:
        overrides["allow_negative_weights"] = True
    config = OptimizerConfig(**overrides)
    # refuse a start degree out of range before any n1 is searched
    for n1 in n1_list:
        _start_degree(config, n1, _new_nodes(n1), 2 * n1 - 1)
    many = len(n1_list) > 1
    failed = False
    for n1 in n1_list:
        table = _table(family, n1 + _new_nodes(n1))
        start = time.perf_counter()
        try:
            pair, state = generate_nested(
                n1, table, config,
                log_path=_derive_log_path(args.log, n1, many))
        except (ConvergenceError, FeasibilityError, NumericalError) as exc:
            print(f"n1={n1} FAILED {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed = True
            continue
        seconds = time.perf_counter() - start
        if args.out is not None:
            record = make_pair_record(pair, config, state.iteration)
            if many or not args.out.endswith(".json"):
                _save_in(args.out, record)
            else:
                save(record, args.out)
        print(f"n1={n1} n2={pair.fine.n} "
              f"alpha1={pair.coarse.exactness_degree} "
              f"alpha2={pair.fine.exactness_degree} "
              f"residual={pair.residual_norm:.3e} "
              f"iterations={state.iteration} time={seconds:.2f}s")
    return EXIT_CONVERGENCE if failed else EXIT_OK


# ------------------------------------------------------------------ extend

def _patterson_steps(rule, steps: int, prune: bool = False):
    """Extend ``rule`` ``steps`` times, each extension seeding the next.

    Yields (extension, iterations, pruned_from) as each step finishes;
    ``pruned_from`` is the size before pruning, or None.  A prune that
    would drop a node of the step's base is refused, so that each rule
    still nests in the next.
    """
    for _ in range(steps):
        table = _table(rule.family, rule.n + _new_nodes(rule.n))
        base = rule
        rule, state = extend_patterson(base, table)
        pruned_from = None
        if prune:
            kept = prune_negligible(rule, table)
            if kept.n != rule.n and np.isin(base.nodes, kept.nodes).all():
                pruned_from, rule = rule.n, kept
        yield rule, state.iteration, pruned_from


def cmd_extend(args) -> int:
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    record = load(args.input)
    rule = record.payload.fine if record.kind == "pair" else record.payload
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    for rule, iterations, pruned_from in _patterson_steps(
            rule, args.steps, args.prune):
        line = f"n2={rule.n} alpha2={rule.exactness_degree}"
        if pruned_from is not None:
            line += f" pruned_from={pruned_from}"
        print(line)
        if args.out is not None:
            _save_in(args.out, make_rule_record(rule, mode="patterson",
                                                iterations=iterations))
    return EXIT_OK


# ------------------------------------------------------------------- gauss

def cmd_gauss(args) -> int:
    family = _parse_family(args.family, args.params)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    rule = gauss_rule(_table(family, args.n), args.n)
    if args.out is not None:
        save(make_rule_record(rule), args.out)
    print(f"n={rule.n} alpha={rule.exactness_degree} "
          f"residual={rule.residual_norm:.3e}")
    return EXIT_OK


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    family, parts, checks = verify_record(args.input, args.alpha)
    ok = True
    labels = ("coarse", "fine") if len(parts) == 2 else ("",)
    for label, (*_, stored), (residuals, norm, allowed) in zip(
            labels, parts, checks):
        if label:
            print(label)
        print("  j  residual")
        worst = int(np.argmax(np.abs(residuals)))
        for j, r in enumerate(residuals):
            flag = "  <- worst" if j == worst else ""
            print(f"  {j:<3d}{r:+.3e}{flag}")
        passed = norm <= allowed
        ok &= passed
        print(f"  norm={norm:.3e} stored={stored:.3e} allowed={allowed:.3e} "
              f"{'PASS' if passed else 'FAIL'}")

    if args.circle_theorem:
        nodes, weights, alpha, stored = parts[-1]
        rule = QuadratureRule(family, nodes, weights, alpha, stored,
                              weight_floor_relaxed=True)
        deviation = circle_theorem_deviation(rule)
        print(f"  circle_theorem_deviation={deviation:.3e}")
    return EXIT_OK if ok else EXIT_VERIFY


# ------------------------------------------------------------- sparse-grid

def _nested_chain_from_catalog(catalog, family):
    """Telescoping chain of stored rules, smallest first.

    A catalog may hold rules of the family that belong to no chain, such
    as a Gauss rule of another size; this picks, smallest first, each rule
    that embeds the last one picked bit-exactly and skips the others,
    which ``nested_levels`` would reject.
    """
    rules = [entry.record.payload for entry in catalog.entries.values()
             if entry.record.kind == "rule"
             and entry.record.family == family]
    rules.sort(key=lambda r: r.n)
    chain = []
    for rule in rules:
        if not chain or _embedded(chain[-1], rule):
            chain.append(rule)
    return chain


def _autogen_chain(family, entries, catalog_dir):
    """A Gauss seed and its extensions, ``entries`` rules in all; they are
    saved to ``catalog_dir`` only once every step has succeeded."""
    seed = gauss_rule(_table(family, 1), 1)
    steps = list(_patterson_steps(seed, entries - 1))
    if catalog_dir:
        _save_in(catalog_dir, make_rule_record(seed))
        for rule, iterations, _ in steps:
            _save_in(catalog_dir, make_rule_record(
                rule, mode="patterson", iterations=iterations))
    return [seed] + [rule for rule, _, _ in steps]


def cmd_sparse_grid(args) -> int:
    family = _parse_family(args.family, args.params)
    if args.d < 1 or args.k < 1:
        raise UsageError("--d and --k must be at least 1")
    base = args.out
    if base is not None:
        for suffix in (".json", ".csv"):
            if base.endswith(suffix):
                base = base[:-len(suffix)]
        if not os.path.basename(base):
            raise UsageError(
                f"--out {args.out!r} names no file: give a basename such "
                "as DIR/grid")
    if args.schedule == "gauss":
        levels = gauss_levels(_table(family, args.k), args.k)
    else:
        needed = _chain_schedule(args.k)[-1]
        catalog = args.catalog
        if catalog is None:
            catalog = os.environ.get("NESTQUAD_CATALOG")
        if args.autogen:
            chain = _autogen_chain(family, needed, catalog)
        else:
            if not catalog or not os.path.isdir(catalog):
                raise MissingDependencyError(
                    "no catalog directory; pass --catalog or set "
                    "NESTQUAD_CATALOG, or use --autogen")
            chain = _nested_chain_from_catalog(catalog_scan(catalog), family)
            if len(chain) < needed:
                raise MissingDependencyError(
                    f"catalog provides a chain of {len(chain)} rules, "
                    f"level {args.k} needs {needed}; rerun with --autogen")
        levels = nested_levels(chain, args.k)
    grid = smolyak_grid(levels, args.d, args.k)
    if base is not None:
        write_grid_json(grid, base + ".json", family.label())
        write_grid_csv(grid, base + ".csv")
    print(grid.node_count)
    return EXIT_OK


# --------------------------------------------------------------- integrate

def _resolve_function(name: str, params: str | None, d: int):
    """Return (f, truth) where truth is the analytic value for the uniform
    weight on [-1,1]^d, or inf when it exceeds the float range.

    ``f`` maps the last axis of its argument to one value: it takes one
    d-vector, or an (N, d) node array in a single call.  A parameter that
    is not finite is refused with a UsageError naming it.
    """
    name = name.strip().lower()
    values = _parse_params(params)
    for value in values:
        if not math.isfinite(value):
            raise UsageError(f"--params value {value} is not finite")

    if name == "constant":
        return (lambda x: np.ones(np.shape(x)[:-1])), 1.0
    if name == "monomial":
        if len(values) != d or any(v != int(v) or v < 0 for v in values):
            raise UsageError(
                f"monomial needs {d} nonnegative integer exponents")
        powers = [int(v) for v in values]
        exps = np.array(powers, dtype=float)
        truth = math.prod(1.0 / (p + 1) if p % 2 == 0 else 0.0
                          for p in powers)
        return (lambda x: np.prod(np.asarray(x) ** exps, axis=-1)), truth
    if name == "product-exponential":
        if len(values) != d:
            raise UsageError(f"product-exponential needs {d} coefficients")
        coeffs = np.array(values)
        try:
            truth = math.prod(math.sinh(c) / c if c != 0.0 else 1.0
                              for c in values)
        except OverflowError:  # sinh(c) / c beyond the float range
            truth = math.inf

        def product_exponential(x):
            with np.errstate(over="ignore"):  # overflow gives inf
                return np.exp(np.asarray(x) @ coeffs)

        return product_exponential, truth
    if name == "genz-oscillatory":
        if len(values) != d + 1:
            raise UsageError(
                f"genz-oscillatory needs u plus {d} coefficients")
        u, coeffs = values[0], np.array(values[1:])
        truth = math.cos(2.0 * math.pi * u) * math.prod(
            math.sin(c) / c if c != 0.0 else 1.0 for c in values[1:])
        return (lambda x: np.cos(
            2.0 * math.pi * u + np.asarray(x) @ coeffs)), truth
    raise UsageError(f"unknown function {name!r}")


def _e_mu(estimate: float, truth: float, fn_name: str,
          family_ref: str) -> str:
    """The `` e_mu=`` field of an ``integrate`` line: the error against
    ``truth`` (the uniform weight's; any weight's for ``constant``),
    absolute and marked ``abs:`` for a zero truth; "" where none applies."""
    if not ((fn_name == "constant" or family_ref.startswith("legendre"))
            and math.isfinite(truth)):
        return ""
    if truth == 0.0:
        return f" e_mu=abs:{abs(estimate):.3e}"
    return f" e_mu={abs((estimate - truth) / truth):.3e}"


def cmd_integrate(args) -> int:
    if (args.grid is None) == (args.rule is None):
        raise UsageError("give exactly one of --grid or --rule")
    fn_name = args.function.strip().lower()

    if args.grid is not None:
        nodes, weights, family_ref = read_grid_json(args.grid)
        f, truth = _resolve_function(fn_name, args.params, nodes.shape[1])
        estimate = _weighted_sum(weights, _node_values(nodes, f))
        print(f"estimate={estimate:.12e}"
              + _e_mu(estimate, truth, fn_name, family_ref))
        return EXIT_OK

    record = load(args.rule)
    if record.kind != "pair":
        raise UsageError("--rule expects a nested pair record")
    pair = record.payload
    f, truth = _resolve_function(fn_name, args.params, 1)
    # every coarse node is a fine node, so one evaluation serves both
    values = _node_values(pair.fine.nodes[:, None], f)
    mu1 = _weighted_sum(pair.coarse.weights, values[list(pair.subset_map)])
    mu2 = _weighted_sum(pair.fine.weights, values)
    e_i = abs((mu1 - mu2) / mu2) if mu2 != 0.0 else abs(mu1 - mu2)
    print(f"coarse={mu1:.12e} fine={mu2:.12e} e_I={e_i:.3e}"
          + _e_mu(mu2, truth, fn_name, record.family.label()))
    return EXIT_OK


# ------------------------------------------------------------------ export

def cmd_export(args) -> int:
    record = load(args.input, verify=False)
    part = args.part
    if record.kind == "pair":
        rule = record.payload.coarse if part == "coarse" \
            else record.payload.fine
    else:
        if part == "coarse":
            raise UsageError("rule records have no coarse part")
        rule = record.payload
    write_rule_csv(rule, args.out)
    print(f"wrote {rule.n} rows to {args.out}")
    return EXIT_OK


# -------------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no state
    from the environment: ``NESTQUAD_CATALOG`` is read when
    ``sparse-grid`` runs."""
    parser = _Parser(prog="nestquad",
                     description="Nested quadrature rule toolkit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="optimize a nested pair")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--n1", required=True,
                   help="coarse size, or comma list for a batch")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--alpha2-init", dest="alpha2_init", type=int,
                   default=None)
    p.add_argument("--allow-negative-weights", action="store_true")
    p.add_argument("--log", default=None,
                   help="per-iteration diagnostics CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extend", help="Patterson-extend a stored rule")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--prune", action="store_true")
    p.add_argument("--out", default=None,
                   help="directory receiving one record per level")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("gauss", help="build a plain Gauss rule")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("verify", help="re-verify a stored record")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--circle-theorem", dest="circle_theorem",
                   action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sparse-grid", help="assemble a Smolyak grid")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--schedule", choices=("nested", "gauss"),
                   default="nested")
    p.add_argument("--catalog", default=None)
    p.add_argument("--autogen", action="store_true",
                   help="generate missing univariate levels")
    p.add_argument("--out", default=None,
                   help="basename for .json and .csv grid files")
    p.set_defaults(func=cmd_sparse_grid)

    p = sub.add_parser("integrate", help="integrate a built-in function")
    p.add_argument("--grid", default=None)
    p.add_argument("--rule", default=None,
                   help="nested pair record for embedded error estimation")
    p.add_argument("--function", required=True)
    p.add_argument("--params", default=None)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("export", help="write a stored rule as CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--part", choices=("fine", "coarse"), default="fine")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def _attach_params(argv) -> list:
    """``argv`` with each ``--params V`` whose V starts with a minus sign
    and a digit or a point written ``--params=V``.  argparse reads only
    plain -N and -.N as negative numbers, and would take a list such as
    -0.5,0.5 for an unknown option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--params" and re.match(r"-[\d.]", arg):
            out[-1] = f"--params={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_params(sys.argv[1:] if argv is None else argv))
        if getattr(args, "func", None) is None:
            raise UsageError("no command given (see --help)")
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (UsageError, ParameterError, UnsupportedFamilyError,
            EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, FeasibilityError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (SchemaError, IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MissingDependencyError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
