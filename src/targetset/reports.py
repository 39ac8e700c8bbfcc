"""Structured text reports for CLI output and experiment scripts.

Reports are flat `key value...` lines. The first line names the report
kind; list values are space-separated with vertex ids ascending. Rationals
are printed exactly ("3/2", never "1.5"). Renderers never print a wall
time: the CLI appends one to report commands run without `--deterministic`.
"""

from __future__ import annotations

from .degeneracy import DegeneracyOrdering, NotDegenerate
from .engine import ActivationTrace
from .instance import Violation, format_rational
from .oracles import OracleResult
from .solvers import ApproxTargetSetResult, SolveReport


def _ids(vertices) -> str:
    return " ".join(map(str, sorted(vertices)))


def _finish(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def trace_report(trace: ActivationTrace, total_vertices: int) -> str:
    ids = sorted(trace.final_active)
    at = dict(zip(ids, range(len(ids)))).__getitem__
    return _simulate_text([list(map(at, r)) for r in trace.rounds], list(map(str, ids)), total_vertices)


def _simulate_text(rounds: list[list[int]], names: list[str], total_vertices: int) -> str:
    """The simulate report of disjoint `rounds` of positions; `names[i]` is the id at position i as
    text, ascending, and the rounds cover every position when they cover `len(names)` of them."""
    at, reached = names.__getitem__, sum(map(len, rounds))
    final = names if reached == len(names) else map(at, sorted([i for r in rounds for i in r]))
    lines = ["report simulate", f"activated_all {'true' if reached == total_vertices else 'false'}",
             f"rounds {len(rounds) - 1}"]
    lines += [f"round {t} {' '.join(map(at, sorted(r)))}".rstrip() for t, r in enumerate(rounds)]
    return _finish(lines + [f"final {' '.join(final)}".rstrip()])


def solve_report_text(report: SolveReport) -> str:
    lines = [
        "report solve",
        f"method {report.method}",
        f"cost {format_rational(report.cost)}",
    ]
    for v in sorted(report.incentives):
        lines.append(f"p {v} {format_rational(report.incentives[v])}")
    for key in sorted(report.certificate):
        lines.append(f"certificate {key} {report.certificate[key]}")
    return _finish(lines)


def approx_report_text(result: ApproxTargetSetResult) -> str:
    lines = [
        "report solve",
        "method algorithm-one",
        f"size {len(result.seed)}",
        f"set {_ids(result.seed)}".rstrip(),
        f"tau_max {format_rational(result.tau_max)}",
    ]
    if result.min_positive_slack is not None:
        lines.append(f"min_positive_slack {format_rational(result.min_positive_slack)}")
    if result.claimed_ratio is not None:
        lines.append(f"claimed_ratio {format_rational(result.claimed_ratio)}")
    return _finish(lines)


def cover_report_text(cover) -> str:
    lines = [
        "report solve",
        "method vc-bound",
        f"size {len(cover)}",
        f"set {_ids(cover)}".rstrip(),
    ]
    return _finish(lines)


def oracle_report_text(problem: str, result: OracleResult) -> str:
    lines = [
        "report oracle",
        f"problem {problem}",
        f"optimum {format_rational(result.optimum)}",
    ]
    if isinstance(result.witness, dict):
        for v in sorted(result.witness):
            lines.append(f"p {v} {format_rational(result.witness[v])}")
    else:
        lines.append(f"witness {_ids(result.witness)}".rstrip())
    lines.append(f"explored {result.explored}")
    return _finish(lines)


def degeneracy_report_text(result: DegeneracyOrdering | NotDegenerate) -> str:
    if isinstance(result, NotDegenerate):
        lines = [
            "report degeneracy",
            "degenerate false",
            f"stuck {_ids(result.stuck)}".rstrip(),
        ]
    else:
        lines = [
            "report degeneracy",
            "degenerate true",
            "order " + " ".join(str(v) for v in result.order),
        ]
        for v in result.order:
            lines.append(f"slack {v} {format_rational(result.slacks[v])}")
    return _finish(lines)


def validate_report_text(violation: Violation | None) -> str:
    if violation is None:
        lines = ["report validate", "ok true"]
    else:
        lines = [
            "report validate",
            "ok false",
            f"rule {violation.rule}",
            f"detail {violation.detail}",
        ]
    return _finish(lines)


def check_report_text(result) -> str:
    lines = [
        "report check",
        f"name {result.name}",
        f"checked {result.checked}",
        f"failures {len(result.failures)}",
        f"pass {'true' if result.passed else 'false'}",
    ]
    for message in result.failures[:5]:
        lines.append(f"failure {message}")
    return _finish(lines)
