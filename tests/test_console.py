"""Console checks: `python -m targetset.cli` in a temporary directory, on files written there.

Each check runs the commands, inputs, thresholds and timeouts of the
workflow's console smoke, where it stood before; a timeout fails the test.
So far this holds the target-vector oracle's checks.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import targetset
from targetset import GenSpec, Instance, generate, min_edge_weight, serialize_wtg, to_bidirected

# The directory the tests import `targetset` from, so the command runs the same source.
_SOURCE = str(Path(targetset.__file__).resolve().parent.parent)


def _cli(cwd: Path, *args: str, timeout: float | None = None) -> str:
    """Run the CLI in `cwd`; its stdout, after asserting it exits 0."""
    path = os.pathsep.join(filter(None, (_SOURCE, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "targetset.cli", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


def _value(report: str, key: str) -> str | None:
    """The rest of the report's first line that starts with `key` and a space, if any."""
    return next((line[len(key) + 1:] for line in report.splitlines() if line.startswith(f"{key} ")), None)


def test_oracle_runs_past_its_default_limit(tmp_path):
    _cli(tmp_path, "gen", "--family", "degenerate", "--n", "14", "--seed", "7", "-o", "big.wtg")
    _cli(tmp_path, "oracle", "target-vector", "big.wtg", "--limit-n", "14")


@pytest.mark.parametrize("n, limit, timeout", [(20, ["--limit-n", "20"], 5), (8, [], None)],
                         ids=["deg20", "deg8"])
def test_degenerate_instance_peels_to_the_solvers_cost(tmp_path, n, limit, timeout):
    # A degenerate instance peels completely, above the program's limit and below it: no search and
    # no program (`explored 0`), and the optimum is the degenerate solver's cost.
    _cli(tmp_path, "gen", "--family", "degenerate", "--n", str(n), "-o", "deg.wtg")
    out = _cli(tmp_path, "oracle", "target-vector", "deg.wtg", *limit, "--deterministic", timeout=timeout)
    assert "explored 0" in out.splitlines()
    cost = _value(_cli(tmp_path, "solve", "--method", "degenerate", "--deterministic", "deg.wtg"), "cost")
    optimum = _value(out, "optimum")
    assert optimum and optimum == cost


def _saturated() -> Instance:
    g = generate(GenSpec(n=16, seed=1, edge_prob=0.4))
    return Instance(g.mode, g.vertices, g.edges, g.incident_totals)


def _all_low_image() -> Instance:
    g = generate(GenSpec(n=16, seed=1, edge_prob=0.4, weights="halves", connected=True))
    mu = min_edge_weight(g)
    t = g.incident_totals
    return to_bidirected(Instance(g.mode, g.vertices, g.edges, {v: t[v] - mu for v in g.vertices})).image


# Saturated thresholds (tau = incident weight) peel completely. The bi-directed image of an all-low
# two-level instance pairs every arc with an equal opposite arc, so the search takes the undirected
# estimate and needs a few dozen expansions. Neither may reach the program's n * 2^(n-1) = 524288
# pairs at n = 16.
@pytest.mark.parametrize("make", [_saturated, _all_low_image], ids=["saturated", "alllow_directed"])
def test_oracle_answers_without_the_program_at_16(tmp_path, make):
    (tmp_path / "in.wtg").write_text(serialize_wtg(make()))
    explored = _value(_cli(tmp_path, "oracle", "target-vector", "in.wtg", "--limit-n", "16", "--deterministic"),
                      "explored")
    assert explored is not None and explored.isdigit() and int(explored) < 524288
