"""Console checks: the CLI run from pytest's temporary directory, on files written there.

A check that carries a timeout runs `python -m targetset.cli` in a
subprocess, and the timeout fails the test; every other check calls
`targetset.cli.main` in-process.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import targetset
from targetset import (UNDIRECTED, GenSpec, Instance, build_instance, checks, generate, min_edge_weight,
                       parse_wtg, serialize_wtg, to_bidirected)
from targetset.cli import main

from test_wtg import _wide_denominator_document

# The directory the tests import `targetset` from, so the command runs the same source.
_SOURCE = str(Path(targetset.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _run(*args: str, timeout: float | None = None) -> tuple[int, str, str]:
    """Run the CLI in the current directory: (exit code, stdout, stderr)."""
    if timeout is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
        return code, out.getvalue(), err.getvalue()
    path = os.pathsep.join(filter(None, (_SOURCE, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "targetset.cli", *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})
    return done.returncode, done.stdout, done.stderr


def _cli(*args: str, timeout: float | None = None) -> str:
    """`_run`'s stdout, after asserting it exits 0."""
    code, out, err = _run(*args, timeout=timeout)
    assert code == 0, err
    return out


def _value(report: str, key: str) -> str | None:
    """The rest of the report's first line that starts with `key` and a space, if any."""
    return next((line[len(key) + 1:] for line in report.splitlines() if line.startswith(f"{key} ")), None)


def _saturated(n: int) -> Instance:
    """G(n, 0.4), seed 1, every threshold its incident weight."""
    g = generate(GenSpec(n=n, seed=1, edge_prob=0.4))
    return Instance(g.mode, g.vertices, g.edges, g.incident_totals)


def _all_low(g: Instance) -> Instance:
    """`g` with every threshold its incident weight minus the least edge weight."""
    mu = min_edge_weight(g)
    t = g.incident_totals
    return Instance(g.mode, g.vertices, g.edges, {v: t[v] - mu for v in g.vertices})


def test_oracle_runs_past_its_default_limit():
    _cli("gen", "--family", "degenerate", "--n", "14", "--seed", "7", "-o", "big.wtg")
    _cli("oracle", "target-vector", "big.wtg", "--limit-n", "14")


@pytest.mark.parametrize("n, limit, timeout", [(20, ["--limit-n", "20"], 5), (8, [], None)],
                         ids=["deg20", "deg8"])
def test_degenerate_instance_peels_to_the_solvers_cost(n, limit, timeout):
    # A degenerate instance peels completely, above the program's limit and below it: no search and
    # no program (`explored 0`), and the optimum is the degenerate solver's cost.
    _cli("gen", "--family", "degenerate", "--n", str(n), "-o", "deg.wtg")
    out = _cli("oracle", "target-vector", "deg.wtg", *limit, "--deterministic", timeout=timeout)
    assert "explored 0" in out.splitlines()
    cost = _value(_cli("solve", "--method", "degenerate", "--deterministic", "deg.wtg"), "cost")
    optimum = _value(out, "optimum")
    assert optimum and optimum == cost


# Saturated thresholds (tau = incident weight) peel completely. The bi-directed image of an all-low
# two-level instance pairs every arc with an equal opposite arc, so the search takes the undirected
# estimate and needs a few dozen expansions. Neither may reach the program's n * 2^(n-1) = 524288
# pairs at n = 16.
@pytest.mark.parametrize("make", [
    lambda: _saturated(16),
    lambda: to_bidirected(_all_low(generate(GenSpec(n=16, seed=1, edge_prob=0.4, weights="halves",
                                                    connected=True)))).image,
], ids=["saturated", "alllow_directed"])
def test_oracle_answers_without_the_program_at_16(make):
    Path("in.wtg").write_text(serialize_wtg(make()))
    explored = _value(_cli("oracle", "target-vector", "in.wtg", "--limit-n", "16", "--deterministic"), "explored")
    assert explored is not None and explored.isdigit() and int(explored) < 524288


def test_a_large_sparse_file_is_generated_solved_and_simulated():
    # Generation draws each row of vertex pairs in one pass: 18 M pairs at n=6000 take about 1.2 s.
    # Solve and simulate take about 0.3 s each, as neither reads the edge Fractions.
    _cli("gen", "--family", "degenerate", "--n", "6000", "--p", "0.0013", "--weights", "halves", "-o", "big.wtg",
         timeout=20)
    _cli("validate", "big.wtg")
    assert "method degenerate" in _cli("solve", "--deterministic", "big.wtg", timeout=10).splitlines()
    assert "report simulate" in _cli("simulate", "--seed-set", "1", "--deterministic", "big.wtg",
                                     timeout=10).splitlines()


# `solve --method auto` prints the report of the first of the degenerate, two-level and min-or-full
# solvers that accepts the file, and exits 3 where none does. The all-low copy of a two-level file
# sets every threshold to its incident sum minus mu.
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", ["two-level", "all-low", "min-or-full", "uniform"])
def test_auto_prints_the_first_accepting_class_solvers_report(policy, seed):
    tau = "two-level" if policy == "all-low" else policy
    _cli("gen", "--n", "30", "--seed", str(seed), "--tau-policy", tau,
         *(["--connected"] if tau == "two-level" else []), "-o", "g.wtg")
    if policy == "all-low":
        Path("g.wtg").write_text(serialize_wtg(_all_low(parse_wtg(Path("g.wtg").read_text())[0])))
    auto = _run("solve", "--method", "auto", "--deterministic", "g.wtg")[:2]
    for method in ("degenerate", "two-level", "min-or-full"):
        code, out, _ = _run("solve", "--method", method, "--deterministic", "g.wtg")
        if code == 0:
            assert auto == (0, out)
            return
    assert auto[0] == 3


def test_unreduced_tokens_over_mixed_denominators_load_exactly():
    # The bi-directed image writes the weight 6/4 reduced to 3/2 on both arcs.
    Path("unreduced.wtg").write_text("wtg 1\nmode undirected\nn 3\nv 1 2/4\nv 2 3/9\nv 3 0/7\ne 2 1 6/4\ne 3 2 1\n")
    _cli("validate", "unreduced.wtg")
    assert {"e 1 2 3/2", "e 2 1 3/2"} <= set(_cli("reduce", "bidirect", "unreduced.wtg").splitlines())


def _generated() -> str:
    """A degenerate G(40) with halves weights, written to s.wtg; its text."""
    _cli("gen", "--family", "degenerate", "--n", "40", "--seed", "3", "--weights", "halves", "-o", "s.wtg")
    return Path("s.wtg").read_text()


# A generated file is read in bulk. A trailing comment and CRLF line ends send a copy to the line
# parser; so does writing vertex 1 as `01`, a token the bulk reader's id map does not hold, and so
# does writing every edge high id first. Each copy is (the edit, a text it must then hold).
_LAYOUTS = {
    "comment": (lambda text: text + "# trailing comment\n", "# trailing comment"),
    "crlf": (lambda text: text.replace("\n", "\r\n"), "\r\n"),
    "zero": (lambda text: re.sub(r"^([ve]) 1 ", r"\1 01 ", text, flags=re.M), "\ne 01 "),
    "swap": (lambda text: re.sub(r"^e (\d+) (\d+) ", r"e \2 \1 ", text, flags=re.M), "\ne 2 1 "),
}


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_every_layout_parses_and_reports_alike(layout):
    text = _generated()
    edit, marker = _LAYOUTS[layout]
    copy = edit(text)
    assert marker in copy
    assert parse_wtg(copy) == parse_wtg(text)
    Path("copy.wtg").write_text(copy)
    for command in (["solve"], ["simulate", "--seed-set", "1"]):
        assert _cli(*command, "--deterministic", "copy.wtg") == _cli(*command, "--deterministic", "s.wtg")


def test_p_lines_drive_simulate_alike_three_ways():
    # The same p lines, paying every fourth vertex in full, as the file's own and through --incentives
    # on the file and on its `01` copy.
    text = _generated()
    g, _ = parse_wtg(text)
    Path("p.wtg").write_text(serialize_wtg(g, {v: g.tau[v] for v in g.vertices if v % 4 == 0}))
    Path("zero.wtg").write_text(_LAYOUTS["zero"][0](text))
    own = _cli("simulate", "--deterministic", "p.wtg")
    for base in ("s.wtg", "zero.wtg"):
        assert _cli("simulate", "--incentives", "p.wtg", "--deterministic", base) == own


def test_wide_denominators_validate_and_bidirect():
    # 4000 vertices and 16000 edges, every value k/q with q <= 10^5, on a scale of about 55,000 bits.
    # Each distinct value is reduced on its own, so each command takes seconds.
    Path("wide.wtg").write_text(_wide_denominator_document(4000))
    _cli("validate", "wide.wtg", timeout=15)
    _cli("reduce", "bidirect", "wide.wtg", "-o", "wide_directed.wtg", timeout=30)


@pytest.mark.parametrize("argv, timeout", [
    *(((name, "--instances", "2", "--limit-n", "3"), None) for name in checks.CHECKS),
    # prop1-preservation asks the engine only about seeds containing no seed that activates both the
    # source and its image, so sources of up to 12 vertices pass in a fraction of a second.
    (("prop1-preservation", "--instances", "30", "--limit-n", "12", "--seed", "1"), None),
    # bidirected compares sorted position rounds of each source and its digraph image; sources of up
    # to 16 vertices, twice the default size, pass in well under a second.
    (("bidirected", "--instances", "100", "--limit-n", "16", "--seed", "5"), 20),
    # The target-vector search counts the weight a stuck remainder must waste, so the all-low third
    # of the two-level sweep answers without the subset DP: n = 20 passes in well under a second.
    (("two-level", "--seed", "0", "--limit-n", "20"), 10),
], ids=[*(f"{name}-tiny" for name in checks.CHECKS), "prop1-30x12", "bidirected-100x16", "two-level-20"])
def test_sweep_passes(argv, timeout):
    assert "pass true" in _cli("check", *argv, "--deterministic", timeout=timeout).splitlines()


def test_target_set_search_is_one_chain_where_nothing_spreads():
    # n + 1 nodes, not 2^n seeds.
    Path("edgeless.wtg").write_text(serialize_wtg(build_instance(UNDIRECTED, 20, [], 1)))
    out = _cli("oracle", "target-set", "edgeless.wtg", "--deterministic")
    assert _value(out, "optimum") == "20" and int(_value(out, "explored")) <= 21


def test_saturated_target_sets_are_the_vertex_covers():
    # With every threshold at its incident weight the seed sets are the vertex covers, and the
    # target-set search's forced-pair bound is the cover's matching bound: n = 20 pops a few hundred
    # nodes (1,474 without the bound), and both oracles name the same smallest cover.
    Path("saturated20.wtg").write_text(serialize_wtg(_saturated(20)))
    sets = _cli("oracle", "target-set", "saturated20.wtg", "--limit-n", "20", "--deterministic", timeout=5)
    assert int(_value(sets, "explored")) < 600
    covers = _cli("oracle", "vertex-cover", "saturated20.wtg", "--deterministic")
    answer = [line for line in sets.splitlines() if line.startswith(("optimum ", "witness "))]
    assert answer and answer == [line for line in covers.splitlines() if line.startswith(("optimum ", "witness "))]
