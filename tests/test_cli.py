"""Command line interface: reports, exit codes, determinism."""

import contextlib
import io
import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from targetset import checks, engine, solvers
from targetset.cli import main
from targetset.instance import SUBSET_TABLE_CEILING
from targetset.reports import trace_report
from targetset import (
    UNDIRECTED,
    OracleLimitError,
    build_instance,
    parse_wtg,
    run_activation,
    run_with_incentives,
    serialize_wtg,
)

import model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(fixtures, capsys):
    code, out, _ = run(capsys, "validate", str(fixtures / "p3.wtg"))
    assert code == 0
    assert "ok true" in out


def test_validate_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.wtg"
    bad.write_text("wtg 1\nmode undirected\nn 1\nv 1 1\ne 1 1 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "self-loop" in err


def test_simulate_seed_set(fixtures, capsys):
    code, out, _ = run(capsys, "simulate", str(fixtures / "p3.wtg"),
                       "--seed-set", "1", "--deterministic")
    assert code == 0
    assert "activated_all true" in out
    assert "round 0 1\nround 1 2\nround 2 3" in out


def test_simulate_empty_seed_set(fixtures, capsys):
    code, out, _ = run(capsys, "simulate", str(fixtures / "p3.wtg"),
                       "--seed-set", "", "--deterministic")
    assert code == 0
    assert "activated_all false" in out


def test_simulate_with_incentive_file(fixtures, capsys):
    code, out, _ = run(capsys, "simulate", str(fixtures / "p3.wtg"),
                       "--incentives", str(fixtures / "p3_incentives.wtg"),
                       "--deterministic")
    assert code == 0
    assert "activated_all true" in out


@pytest.mark.parametrize("order", [("--seed-set", "--incentives"), ("--incentives", "--seed-set")])
def test_simulate_seed_set_and_incentives_are_exclusive(fixtures, capsys, order):
    values = {"--seed-set": "3", "--incentives": str(fixtures / "p3_incentives.wtg")}
    argv = [x for flag in order for x in (flag, values[flag])]
    code, out, err = run(capsys, "simulate", str(fixtures / "p3.wtg"), *argv, "--deterministic")
    assert code == 1
    assert out == ""
    assert err == f"usage error: argument {order[1]}: not allowed with argument {order[0]}\n"


def test_simulate_uses_own_incentive_lines(fixtures, capsys):
    code, out, _ = run(capsys, "simulate", str(fixtures / "p3_incentives.wtg"),
                       "--deterministic")
    assert code == 0
    assert "activated_all true" in out


def test_simulate_without_any_drive_is_usage_error(fixtures, capsys):
    code, _, err = run(capsys, "simulate", str(fixtures / "p3.wtg"))
    assert code == 1
    assert "seed-set" in err


@st.composite
def _simulate_cases(draw):
    """An instance with gaps between its ids, a drive for `simulate` and the model's report."""
    number = st.fractions(min_value=0, max_value=4, max_denominator=3)
    # Positive thresholds let a run stop short, or spread nothing with an empty seed.
    inst = draw(model.instances(min_n=1, weights=number, density=st.integers(0, 3),
                                thresholds=st.fractions(min_value=0, max_value=6, max_denominator=3)))
    ids = inst.vertices
    drive = draw(st.sampled_from(["seed-set", "own-p", "incentives-file"]))
    if drive == "seed-set":
        seed = draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))
        return inst, drive, seed, trace_report(model.activation(inst, seed), inst.n)
    p = {v: draw(number) for v in draw(st.lists(st.sampled_from(ids), unique=True))}
    return inst, drive, p, trace_report(model.activation(inst, incentives=p), inst.n)


def _simulate_cli(inst, drive, arg) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.wtg"
        path.write_text(serialize_wtg(inst, arg if drive == "own-p" else None))
        argv = ["simulate", str(path), "--deterministic"]
        if drive == "seed-set":
            argv += ["--seed-set", ",".join(map(str, arg))]
        elif drive == "incentives-file":
            p_path = Path(tmp) / "p.wtg"
            p_path.write_text(serialize_wtg(inst, arg))
            argv += ["--incentives", str(p_path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    return out.getvalue()


@given(_simulate_cases())
@settings(max_examples=200, deadline=None)
def test_simulate_prints_the_model_trace_report(case):
    inst, drive, arg, expected = case
    assert _simulate_cli(inst, drive, arg) == expected


@pytest.mark.parametrize("drive, arg, tail", [
    ("seed-set", [], "rounds 0\nround 0\nfinal\n"),  # nothing spreads: no trailing space on either line
    ("seed-set", [7], "rounds 1\nround 0 7\nround 1 3\nfinal 3 7\n"),  # stops short of vertex 12
    ("own-p", {3: Fraction(2)}, "rounds 1\nround 0 3\nround 1 7\nfinal 3 7\n"),
    ("incentives-file", {12: Fraction(5, 2), 7: Fraction(1, 3)}, "rounds 0\nround 0 12\nfinal 12\n"),
])
def test_simulate_report_lines(drive, arg, tail):
    inst = build_instance(UNDIRECTED, [3, 7, 12], [(3, 7, "3/2"), (7, 12, "1/2")], ["3/2", 1, "5/2"])
    out = _simulate_cli(inst, drive, arg)
    assert out == "report simulate\nactivated_all false\n" + tail
    assert out == trace_report(run_with_incentives(inst, arg) if isinstance(arg, dict)
                               else run_activation(inst, arg), inst.n)


def test_simulate_never_builds_an_activation_trace(fixtures, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("simulate built an ActivationTrace")

    monkeypatch.setattr(engine, "_trace", refuse)
    for drive in (("--seed-set", "1"), ("--incentives", str(fixtures / "p3_incentives.wtg"))):
        code, out, _ = run(capsys, "simulate", str(fixtures / "p3.wtg"), *drive, "--deterministic")
        assert code == 0 and "activated_all true" in out
    code, out, _ = run(capsys, "simulate", str(fixtures / "p3_incentives.wtg"), "--deterministic")
    assert code == 0 and "activated_all true" in out


def test_degeneracy_report(fixtures, capsys):
    code, out, _ = run(capsys, "degeneracy", str(fixtures / "p3.wtg"), "--deterministic")
    assert code == 0
    assert "degenerate true" in out
    assert "order 3 2 1" in out


def test_solve_degenerate_p3_costs_one(fixtures, capsys):
    code, out, _ = run(capsys, "solve", "--method", "degenerate",
                       str(fixtures / "p3.wtg"), "--deterministic")
    assert code == 0
    assert "cost 1" in out


def test_solve_auto_picks_two_level_for_unit_triangle(tmp_path, capsys):
    tri = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], 1)
    f = tmp_path / "tri.wtg"
    f.write_text(serialize_wtg(tri))
    code, out, _ = run(capsys, "solve", str(f), "--deterministic")
    assert code == 0
    assert "method two-level" in out and "cost 1" in out


def test_solve_wrong_method_exits_3(fixtures, capsys):
    code, _, err = run(capsys, "solve", "--method", "two-level",
                       str(fixtures / "k3_weighted.wtg"))
    assert code == 3
    assert "precondition" in err


@pytest.mark.parametrize("path, passing, message", [
    ("fixtures/p3.wtg", 0, "degenerate incentive vector failed engine verification"),
    # The split branch checks the reduced graph only: the input graph adds influence to it.
    ("golden/inputs/twolevel_low.wtg", 0, "two-level incentive vector failed engine verification"),
    ("golden/inputs/minfull_comps.wtg", 0, "min-or-full incentive vector failed engine verification"),
], ids=["degenerate", "split", "min-or-full"])
def test_failed_self_verification_exits_5(fixtures, capsys, monkeypatch, path, passing, message):
    # The first `passing` engine runs of the solver go through; the next one fails.
    real, calls = solvers._activates_all, itertools.count()
    monkeypatch.setattr(solvers, "_activates_all",
                        lambda view, seed, need: next(calls) < passing and real(view, seed, need))
    code, out, err = run(capsys, "solve", str(fixtures.parent / path), "--deterministic")
    assert code == 5
    assert out == ""
    assert err == f"verification failed: {message}\n"


@pytest.mark.parametrize("argv, broken_verification, code, prefix", [
    (("frobnicate",), False, 1, "usage error: "),
    (("validate", "GARBAGE"), False, 2, "error: line 1"),
    (("solve", "golden/inputs/broken.wtg"), False, 2, "error: negative-weight"),
    (("validate", "no-such-file.wtg"), False, 2, "error: [Errno 2]"),
    (("validate", "DIR"), False, 2, "error: [Errno 21]"),
    (("gen", "-o", "DIR"), False, 2, "error: [Errno 21]"),
    (("simulate", "fixtures/p3.wtg", "--seed-set", "9"), False, 2, "error: "),
    (("simulate", "fixtures/p3.wtg", "--incentives", "golden/inputs/incentives_halves.wtg"), False, 2,
     "error: incentive given for unknown vertex 4\n"),
    (("solve", "--method", "two-level", "fixtures/k3_weighted.wtg"), False, 3, "precondition not met: "),
    (("oracle", "target-set", "fixtures/p3.wtg", "--limit-n", "2"), False, 4, "oracle limit: "),
    (("solve", "fixtures/p3.wtg"), True, 5, "verification failed: "),
], ids=["usage", "parse", "validation", "missing-file", "directory", "output-directory",
        "unknown-seed-vertex", "unknown-incentive-vertex", "precondition", "limit", "verification"])
def test_each_exit_table_row(fixtures, tmp_path, capsys, monkeypatch,
                             argv, broken_verification, code, prefix):
    (tmp_path / "garbage.wtg").write_text("garbage\n")
    paths = {"GARBAGE": str(tmp_path / "garbage.wtg"), "DIR": str(tmp_path)}
    argv = [paths.get(a) or (str(fixtures.parent / a) if a.endswith(".wtg") else a)
            for a in argv]
    if broken_verification:
        monkeypatch.setattr(solvers, "_activates_all", lambda view, seed, need: False)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_oracle_limit_exit_code(fixtures, capsys):
    code, _, err = run(capsys, "oracle", "target-set", str(fixtures / "p3.wtg"),
                       "--limit-n", "2")
    assert code == 4
    assert "limit" in err


def test_target_vector_ceiling_beats_limit_override(tmp_path, capsys):
    # Rejected before the 2^64-entry tables are requested.
    edgeless = tmp_path / "edgeless64.wtg"
    edgeless.write_text(serialize_wtg(build_instance(UNDIRECTED, 64, [], 0)))
    code, out, err = run(capsys, "oracle", "target-vector", str(edgeless),
                         "--limit-n", "64")
    assert code == 4
    assert out == ""
    assert "limit of 22" in err


def test_target_set_oracle_above_the_subset_table_ceiling(tmp_path, capsys):
    n = SUBSET_TABLE_CEILING + 1
    edgeless = tmp_path / "edgeless.wtg"
    edgeless.write_text(serialize_wtg(build_instance(UNDIRECTED, n, [], 0)))
    code, out, err = run(capsys, "oracle", "target-set", str(edgeless), "--limit-n", str(n))
    assert (code, out) == (4, "")
    assert err == f"oracle limit: {n} vertices exceeds the subset-table ceiling of {n - 1}\n"


def test_target_vector_oracle_past_its_default_limit(tmp_path, capsys):
    # n = 14 is above the dynamic program's default limit of 9, so the
    # closed-set search answers; every vertex gets a `p` line.
    path = str(tmp_path / "big.wtg")
    assert run(capsys, "gen", "--family", "degenerate", "--n", "14", "--seed", "7", "-o", path)[0] == 0
    code, out, err = run(capsys, "oracle", "target-vector", path, "--limit-n", "14", "--deterministic")
    assert code == 0, err
    lines = out.splitlines()
    payments = [Fraction(line.split()[2]) for line in lines if line.startswith("p ")]
    optimum = next(Fraction(line.split()[1]) for line in lines if line.startswith("optimum "))
    assert len(payments) == 14
    assert sum(payments) == optimum


def test_vertex_cover_oracle_on_a_long_path(tmp_path, capsys):
    # Deeper than Python's recursion limit; the search keeps its own stack.
    n = 3000
    path = tmp_path / "path3000.wtg"
    path.write_text(serialize_wtg(build_instance(UNDIRECTED, n, [(i, i + 1) for i in range(1, n)], 1)))
    code, out, err = run(capsys, "oracle", "vertex-cover", str(path),
                         "--limit-n", str(n), "--deterministic")
    assert code == 0, err
    assert "optimum 1500" in out


@pytest.mark.parametrize("argv, flag, low", [
    (("check", "kappa", "--instances", "-2"), "--instances", 1),
    (("check", "kappa", "--instances", "0"), "--instances", 1),
    (("check", "kappa", "--limit-n", "1"), "--limit-n", 2),
    (("oracle", "vertex-cover", "FILE", "--limit-n", "-1"), "--limit-n", 0),
    (("gen", "--family", "degenerate", "--max-slack", "-1"), "--max-slack", 0),
])
def test_bad_counts_are_usage_errors(fixtures, capsys, argv, flag, low):
    argv = [str(fixtures / "p3.wtg") if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"argument {flag}: must be at least {low}" in err


def test_oracle_limit_zero_is_a_limit_not_a_usage_error(fixtures, capsys):
    code, _, err = run(capsys, "oracle", "vertex-cover", str(fixtures / "p3.wtg"),
                       "--limit-n", "0")
    assert code == 4
    assert "limit of 0" in err


def test_oracle_reports_optimum(fixtures, capsys):
    code, out, _ = run(capsys, "oracle", "target-vector", str(fixtures / "p3.wtg"),
                       "--deterministic")
    assert code == 0
    assert "optimum 1" in out


def test_reduce_preserves_oracle_answer(fixtures, tmp_path, capsys):
    image_path = tmp_path / "image.wtg"
    code, _, _ = run(capsys, "reduce", "prop1", str(fixtures / "p3.wtg"),
                     "-o", str(image_path))
    assert code == 0
    code, out_src, _ = run(capsys, "oracle", "target-set", str(fixtures / "p3.wtg"),
                           "--deterministic")
    assert code == 0
    code, out_img, _ = run(capsys, "oracle", "target-set", str(image_path),
                           "--deterministic")
    assert code == 0
    line = [l for l in out_src.splitlines() if l.startswith("optimum")]
    assert line and line == [l for l in out_img.splitlines() if l.startswith("optimum")]


def test_reduce_output_is_parseable_with_notes(fixtures, capsys):
    code, out, _ = run(capsys, "reduce", "bidirect", str(fixtures / "p3.wtg"))
    assert code == 0
    assert out.startswith("# ")
    instance, _ = parse_wtg(out)
    assert instance.mode == "directed"
    assert len(instance.edges) == 4


def test_gen_is_deterministic(capsys):
    args = ("gen", "--family", "degenerate", "--n", "7", "--seed", "99")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    instance, _ = parse_wtg(out1)
    assert instance.n == 7


@pytest.mark.parametrize("spec", [
    ("--family", "cubic", "--n", "5"),
    ("--tau-policy", "two-level", "--n", "8", "--p", "0.1", "--seed", "1"),  # vertex 1 is isolated
    ("--tau-policy", "fixed", "--fixed-tau", "-1"),
    # Options the family does not read are refused, not ignored.
    ("--family", "tournament", "--n", "4", "--p", "7"),
    ("--family", "cubic", "--p", "7"),
    ("--family", "cubic", "--tau-policy", "two-level"),
    ("--family", "degenerate", "--tau-policy", "fixed", "--fixed-tau", "-1"),
    # Over a size limit: refused before the first draw.
    ("--n", "200000", "--p", "0.00001"),
    ("--family", "degenerate", "--n", "6000", "--p", "1"),
    ("--family", "tournament", "--n", "2001"),
    ("--family", "cubic", "--n", "2000000"),
])
def test_gen_infeasible_spec_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "gen", *spec)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_unknown_check_exits_1(capsys):
    code, _, err = run(capsys, "check", "no-such-sweep")
    assert code == 1


def test_value_error_inside_a_sweep_is_not_a_usage_error(capsys, monkeypatch):
    def broken(rng, i, max_n):
        raise ValueError("sweep bug")
    monkeypatch.setitem(checks.CHECKS, "kappa", (broken, 5, 6))
    code, _, err = run(capsys, "check", "kappa")
    assert code == 2
    assert err == "error: sweep bug\n"


def test_check_subcommand_runs_a_sweep(capsys):
    code, out, _ = run(capsys, "check", "kappa", "--instances", "5",
                       "--limit-n", "6", "--deterministic")
    assert code == 0
    assert "pass true" in out


def test_check_lifts_every_oracle_limit_to_the_instance_size(capsys):
    # Draws of 21 vertices pass the target-set oracle's default limit of 20.
    code, out, _ = run(capsys, "check", "bidirected", "--limit-n", "21", "--instances", "3",
                       "--seed", "14", "--deterministic")
    assert code == 0
    assert "pass true" in out


def test_check_lifts_the_oracle_limit_for_hub_images(capsys):
    # The hub embedding of a 20-vertex draw has 21 vertices.
    code, out, _ = run(capsys, "check", "prop3-preservation", "--limit-n", "20", "--instances",
                       "3", "--seed", "2", "--deterministic")
    assert code == 0
    assert "pass true" in out


@pytest.mark.parametrize("argv, estimate", [
    (("otv-grid", "--limit-n", "6", "--instances", "1"), "1.35e+8 shapes and instances, about 2.71e+4 s"),
    (("prop1-preservation", "--limit-n", "26", "--instances", "5"), "3.36e+8 seeds, about 2.01e+3 s"),
    # Past the estimate's cap on max_n the refusal names a lower bound, built without a huge integer.
    (("prop1-preservation", "--limit-n", "9" * 4000, "--instances", "9" * 4000), "at least 1.84e+4019 seeds"),
])
def test_a_sweep_over_its_work_budget_exits_4_before_the_first_instance(capsys, monkeypatch, argv, estimate):
    def unreachable(*args):
        raise AssertionError("the sweep ran")
    monkeypatch.setitem(checks.CHECKS, argv[0], (unreachable, *checks.CHECKS[argv[0]][1:]))
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (4, "")
    assert err.startswith(f"oracle limit: check {argv[0]} (instances ") and err.count("\n") == 1
    assert estimate in err and f"over the budget of {checks.WORK_BUDGET_S} s" in err


# Every size run today: the defaults, the fixture's, `tsbench`'s and the console smoke's.
@pytest.mark.parametrize("name, instances, max_n", [
    *((name, instances, max_n) for name, (_, instances, max_n) in checks.CHECKS.items()),
    *((name, 6, 2 if name == "otv-grid" else 5) for name in checks.CHECKS),
    *((name, 16, checks.CHECKS[name][2]) for name in checks.CHECKS),
    *((name, 2, 3) for name in checks.CHECKS),
    ("prop1-preservation", 30, 12),
])
def test_every_size_in_use_is_within_the_work_budget(name, instances, max_n):
    checks._check_work(name, instances, max_n)


# A draw of max_n vertices at edge probability 0.8, connected, is the largest any generated sweep
# makes; past the generators' limits the sweep exits 4 before its first instance, naming the limit.
@pytest.mark.parametrize("argv, limit", [
    (("kappa", "--limit-n", "100000", "--instances", "1"),
     "100000 vertices make 4,999,950,000 vertex pairs, over the limit of 150,000,000"),
    (("min-or-full", "--limit-n", "2237"), "2237 vertices expect 2,001,220 edges, over the limit of 2,000,000"),
    # Past 10^9 vertices the check names 10^9, built without a huge integer.
    (("bidirected", "--limit-n", "9" * 4000), "1000000000 vertices make"),
])
def test_a_sweep_past_the_generator_limits_exits_4_before_the_first_instance(capsys, monkeypatch, argv, limit):
    def unreachable(*args):
        raise AssertionError("the sweep ran")
    monkeypatch.setitem(checks.CHECKS, argv[0], (unreachable, *checks.CHECKS[argv[0]][1:]))
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (4, "")
    assert err.startswith(f"oracle limit: check {argv[0]} (max_n ") and err.count("\n") == 1
    assert limit in err and "Traceback" not in err


@pytest.mark.parametrize("name", checks.CHECKS)
def test_every_sweep_admits_draws_up_to_the_generator_limits(name):
    # 2236 vertices at probability 0.8 expect 1,999,431 edges; otv-grid draws without the generators.
    checks._check_draws(name, 2236)
    if name != "otv-grid":
        with pytest.raises(OracleLimitError):
            checks._check_draws(name, 2237)


def test_deterministic_flag_makes_runs_byte_identical(fixtures, capsys):
    args = ("solve", "--method", "degenerate", str(fixtures / "p3.wtg"), "--deterministic")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "wall_ms" not in out1
    _, timed, _ = run(capsys, "solve", "--method", "degenerate", str(fixtures / "p3.wtg"))
    assert "wall_ms" in timed


def test_solve_witness_reverifies_through_simulate(fixtures, tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--method", "degenerate",
                       str(fixtures / "p3.wtg"), "--deterministic")
    assert code == 0
    incentives = {}
    for line in out.splitlines():
        if line.startswith("p "):
            _, v, value = line.split()
            incentives[int(v)] = value
    instance, _ = parse_wtg((fixtures / "p3.wtg").read_text())
    from targetset import build_incentives
    vector_file = tmp_path / "vector.wtg"
    vector_file.write_text(serialize_wtg(instance, build_incentives(instance, incentives)))
    code, out, _ = run(capsys, "simulate", str(fixtures / "p3.wtg"),
                       "--incentives", str(vector_file), "--deterministic")
    assert code == 0
    assert "activated_all true" in out
