"""Command line front end.

Exit codes: 0 success, 1 usage, 2 validation or parse failure (also a
failing check sweep), 3 solver precondition unmet, 4 oracle size limit
exceeded, 5 a solver's, oracle's or reduction's result failed its own
verification (a bug, never an input problem).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import checks, reports
from .degeneracy import peel_ordering
from .engine import run_activation, run_with_incentives
from .errors import (
    OracleLimitError,
    PreconditionError,
    UsageError,
    ValidationError,
    VerificationError,
    WtgParseError,
)
from .generators import GenSpec, generate
from .oracles import (
    TARGET_SET_LIMIT,
    TARGET_VECTOR_LIMIT,
    VERTEX_COVER_LIMIT,
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
)
from .reductions import degenerate_to_complete, to_bidirected, tss_to_complete
from .solvers import (
    approx_target_set,
    classify_and_solve,
    solve_degenerate,
    solve_min_or_full,
    solve_two_level,
    vertex_cover_target_set,
)
from .wtg import parse_wtg, serialize_wtg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_LIMIT = 4
EXIT_VERIFY = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(path: str):
    return parse_wtg(Path(path).read_text())


def _seed_set(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad seed set {text!r}; expected comma-separated vertex ids") from None


class _Timer:
    def __init__(self, deterministic: bool):
        self.deterministic = deterministic
        self.start = time.perf_counter()

    @property
    def wall_ms(self):
        if self.deterministic:
            return None
        return (time.perf_counter() - self.start) * 1000.0


def _emit(text: str, out_path: str | None = None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    timer = _Timer(args.deterministic)
    try:
        _load(args.file)
    except ValidationError as exc:
        _emit(reports.validate_report_text(exc.violation, timer.wall_ms))
        return EXIT_VALIDATION
    _emit(reports.validate_report_text(None, timer.wall_ms))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    timer = _Timer(args.deterministic)
    instance, own_p = _load(args.file)
    if args.incentives is not None:
        _, p = _load(args.incentives)
        if p is None:
            raise UsageError(f"{args.incentives} carries no incentive lines")
        trace = run_with_incentives(instance, p)
    elif args.seed_set is not None:
        trace = run_activation(instance, _seed_set(args.seed_set))
    elif own_p is not None:
        trace = run_with_incentives(instance, own_p)
    else:
        raise UsageError("need --seed-set, --incentives, or p lines in the instance file")
    _emit(reports.trace_report(trace, instance.n, timer.wall_ms))
    return EXIT_OK


def _cmd_degeneracy(args) -> int:
    timer = _Timer(args.deterministic)
    instance, _ = _load(args.file)
    result = peel_ordering(instance)
    _emit(reports.degeneracy_report_text(result, timer.wall_ms))
    return EXIT_OK


def _cmd_solve(args) -> int:
    timer = _Timer(args.deterministic)
    instance, _ = _load(args.file)
    method = args.method
    if method == "auto":
        report = classify_and_solve(instance)
        if report is None:
            raise PreconditionError("no supported solver pattern applies; try the oracle")
        _emit(reports.solve_report_text(report, timer.wall_ms))
    elif method == "degenerate":
        _emit(reports.solve_report_text(solve_degenerate(instance), timer.wall_ms))
    elif method == "two-level":
        _emit(reports.solve_report_text(solve_two_level(instance), timer.wall_ms))
    elif method == "min-or-full":
        _emit(reports.solve_report_text(solve_min_or_full(instance), timer.wall_ms))
    elif method == "algorithm-one":
        _emit(reports.approx_report_text(approx_target_set(instance), timer.wall_ms))
    else:  # vc-bound
        _emit(reports.cover_report_text(vertex_cover_target_set(instance), timer.wall_ms))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    timer = _Timer(args.deterministic)
    instance, _ = _load(args.file)
    if args.problem == "target-set":
        limit = args.limit_n if args.limit_n is not None else TARGET_SET_LIMIT
        result = exact_min_target_set(instance, limit)
    elif args.problem == "target-vector":
        limit = args.limit_n if args.limit_n is not None else TARGET_VECTOR_LIMIT
        result = exact_min_target_vector(instance, limit)
    else:
        limit = args.limit_n if args.limit_n is not None else VERTEX_COVER_LIMIT
        result = exact_min_vertex_cover(instance, limit)
    _emit(reports.oracle_report_text(args.problem, result, timer.wall_ms))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    instance, _ = _load(args.file)
    receipt = {
        "prop1": tss_to_complete,
        "prop3": degenerate_to_complete,
        "bidirect": to_bidirected,
    }[args.kind](instance)
    header = "".join(f"# {key}: {value}\n" for key, value in sorted(receipt.notes.items()))
    _emit(header + serialize_wtg(receipt.image), args.output)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        edge_prob=args.p,
        weights=args.weights,
        tau_policy=args.tau_policy,
        fixed_tau=args.fixed_tau,
        connected=args.connected,
        max_slack=args.max_slack,
    )
    try:
        instance = generate(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit(serialize_wtg(instance), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    timer = _Timer(args.deterministic)
    try:
        result = checks.run_check(args.name, args.instances, args.limit_n, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit(reports.check_report_text(result, timer.wall_ms))
    return EXIT_OK if result.passed else EXIT_VALIDATION


def _at_least(low: int):
    """An argparse type: an int no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing never modifies it."""
    parser = _Parser(prog="targetset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--deterministic", action="store_true",
                       help="omit wall time so identical runs are byte-identical")
        return p

    p = add("validate", _cmd_validate, help="check a WTG file's invariants")
    p.add_argument("file")

    p = add("simulate", _cmd_simulate, help="run the activation process")
    p.add_argument("file")
    drive = p.add_mutually_exclusive_group()
    drive.add_argument("--seed-set", help="comma-separated vertex ids; empty string for no seed")
    drive.add_argument("--incentives", help="WTG file whose p lines drive the run")

    p = add("degeneracy", _cmd_degeneracy, help="peel an ordering or report the stuck set")
    p.add_argument("file")

    p = add("solve", _cmd_solve, help="run a polynomial solver")
    p.add_argument("file")
    p.add_argument("--method", default="auto",
                   choices=["auto", "algorithm-one", "degenerate", "two-level",
                            "min-or-full", "vc-bound"])

    p = add("oracle", _cmd_oracle, help="exhaustive exact solvers for small instances")
    p.add_argument("problem", choices=["target-set", "target-vector", "vertex-cover"])
    p.add_argument("file")
    p.add_argument("--limit-n", type=_at_least(0), help="override the size limit")

    p = add("reduce", _cmd_reduce, help="apply an instance transformation")
    p.add_argument("kind", choices=["prop1", "prop3", "bidirect"])
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the image here instead of stdout")

    p = add("gen", _cmd_gen, help="generate a seeded random instance")
    p.add_argument("--family", default="random",
                   choices=["random", "degenerate", "cubic", "tournament"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.5, help="edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="int", choices=["int", "halves", "unit"])
    p.add_argument("--tau-policy", default="uniform",
                   choices=["uniform", "capped", "fixed", "two-level",
                            "min-or-full", "degree-range"])
    p.add_argument("--fixed-tau", default="1", help="threshold for the fixed policy")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--max-slack", type=int, default=3)
    p.add_argument("-o", "--output")

    p = add("check", _cmd_check, help="run a named property sweep")
    p.add_argument("name", help=f"one of: {', '.join(sorted(checks.CHECKS))}")
    p.add_argument("--instances", type=_at_least(1))
    p.add_argument("--limit-n", type=_at_least(2))
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WtgParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
