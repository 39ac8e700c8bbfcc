"""Command line front end.

Each command returns its text and exit code; `main` appends the wall time
to report commands, writes the text and maps exceptions to exit codes.

Exit codes: 0 success, 1 usage, 2 validation or parse failure or an
unreadable path (also a failing check sweep), 3 solver precondition unmet,
4 oracle size limit exceeded, 5 a solver's, oracle's or reduction's result
failed its own verification (a bug, never an input problem).
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
from .oracles import exact_min_target_set, exact_min_target_vector, exact_min_vertex_cover
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

# First match wins; each row is (exception types, exit code, stderr prefix).
_EXITS = (
    ((UsageError,), EXIT_USAGE, "usage error"),
    ((WtgParseError, ValidationError, OSError, ValueError), EXIT_VALIDATION, "error"),
    ((PreconditionError,), EXIT_PRECONDITION, "precondition not met"),
    ((OracleLimitError,), EXIT_LIMIT, "oracle limit"),
    ((VerificationError,), EXIT_VERIFY, "verification failed"),
)
_HANDLED = tuple(kind for kinds, _, _ in _EXITS for kind in kinds)


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


def _cmd_validate(args) -> tuple[str, int]:
    try:
        _load(args.file)
    except ValidationError as exc:
        return reports.validate_report_text(exc.violation), EXIT_VALIDATION
    return reports.validate_report_text(None), EXIT_OK


def _cmd_simulate(args) -> tuple[str, int]:
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
    return reports.trace_report(trace, instance.n), EXIT_OK


def _cmd_degeneracy(args) -> tuple[str, int]:
    instance, _ = _load(args.file)
    return reports.degeneracy_report_text(peel_ordering(instance)), EXIT_OK


def _cmd_solve(args) -> tuple[str, int]:
    instance, _ = _load(args.file)
    if args.method == "algorithm-one":
        return reports.approx_report_text(approx_target_set(instance)), EXIT_OK
    if args.method == "vc-bound":
        return reports.cover_report_text(vertex_cover_target_set(instance)), EXIT_OK
    # Built per call: the tracer in tsbench patches these module attributes.
    report = {
        "auto": classify_and_solve,
        "degenerate": solve_degenerate,
        "two-level": solve_two_level,
        "min-or-full": solve_min_or_full,
    }[args.method](instance)
    if report is None:
        raise PreconditionError("no supported solver pattern applies; try the oracle")
    return reports.solve_report_text(report), EXIT_OK


def _cmd_oracle(args) -> tuple[str, int]:
    instance, _ = _load(args.file)
    oracle = {
        "target-set": exact_min_target_set,
        "target-vector": exact_min_target_vector,
        "vertex-cover": exact_min_vertex_cover,
    }[args.problem]
    result = oracle(instance) if args.limit_n is None else oracle(instance, args.limit_n)
    return reports.oracle_report_text(args.problem, result), EXIT_OK


def _cmd_reduce(args) -> tuple[str, int]:
    instance, _ = _load(args.file)
    receipt = {
        "prop1": tss_to_complete,
        "prop3": degenerate_to_complete,
        "bidirect": to_bidirected,
    }[args.kind](instance)
    header = "".join(f"# {key}: {value}\n" for key, value in sorted(receipt.notes.items()))
    return header + serialize_wtg(receipt.image), EXIT_OK


def _cmd_gen(args) -> tuple[str, int]:
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
    return serialize_wtg(instance), EXIT_OK


def _cmd_check(args) -> tuple[str, int]:
    result = checks.run_check(args.name, args.instances, args.limit_n, args.seed)
    return reports.check_report_text(result), EXIT_OK if result.passed else EXIT_VALIDATION


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
        p.set_defaults(func=fn, output=None)
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
    p.set_defaults(deterministic=True)  # WTG text, never a wall time

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
    p.add_argument("--max-slack", type=_at_least(0), default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(deterministic=True)

    p = add("check", _cmd_check, help="run a named property sweep")
    p.add_argument("name", choices=sorted(checks.CHECKS))
    p.add_argument("--instances", type=_at_least(1))
    p.add_argument("--limit-n", type=_at_least(2))
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        text, code = args.func(args)
        if not args.deterministic:
            text += f"wall_ms {(time.perf_counter() - start) * 1000.0:.3f}\n"
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except _HANDLED as exc:
        for kinds, code, prefix in _EXITS:
            if isinstance(exc, kinds):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
