"""Report rendering: exact rational strings and stable layouts."""

from targetset import (
    UNDIRECTED,
    build_instance,
    exact_min_target_set,
    run_activation,
    solve_degenerate,
)
from targetset.reports import oracle_report_text, solve_report_text, trace_report


def path3():
    return build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], 1)


def test_solve_report_prints_exact_cost():
    text = solve_report_text(solve_degenerate(path3()))
    lines = text.splitlines()
    assert lines[0] == "report solve"
    assert "cost 1" in lines
    assert "p 3 1" in lines and "p 1 0" in lines


def test_rationals_never_become_decimals():
    inst = build_instance(UNDIRECTED, 2, [(1, 2, "1/2")], ["3/2", "1/2"])
    report = solve_degenerate(inst)
    text = solve_report_text(report)
    assert "3/2" in text
    assert "1.5" not in text


def test_trace_report_lists_rounds_in_order():
    trace = run_activation(path3(), {1})
    text = trace_report(trace, 3)
    assert text.index("round 0 1") < text.index("round 1 2") < text.index("round 2 3")
    assert "activated_all true" in text
    assert "final 1 2 3" in text


def test_oracle_report_for_empty_witness():
    inst = build_instance(UNDIRECTED, 2, [(1, 2)], 0)
    text = oracle_report_text("target-set", exact_min_target_set(inst))
    assert "optimum 0" in text
    assert "\nwitness\n" in text  # empty seed prints a bare witness line
