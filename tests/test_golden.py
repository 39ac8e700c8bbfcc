"""Golden corpus: `--deterministic` CLI reports must stay byte-identical.

Each case runs one CLI invocation in-process and compares its exit code and
stdout with `tests/golden/<name>.txt`. To rewrite the corpus after an
intended output change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import pathlib

import pytest

from targetset.cli import main

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"


def _fixture(name: str) -> str:
    return str(TESTS / "fixtures" / name)


def _input(name: str) -> str:
    return str(GOLDEN / "inputs" / name)


CASES = {
    "validate-ok": ["validate", _fixture("halves.wtg")],
    "validate-broken": ["validate", _input("broken.wtg")],
    "simulate-p3-seed": ["simulate", _fixture("p3.wtg"), "--seed-set", "1"],
    "simulate-triangle-seed": ["simulate", _fixture("triangle_t2.wtg"), "--seed-set", "1"],
    "simulate-halves-empty": ["simulate", _fixture("halves.wtg"), "--seed-set", ""],
    "simulate-noncontig-empty": ["simulate", _input("noncontig.wtg"), "--seed-set", ""],
    "simulate-noncontig-seed": ["simulate", _input("noncontig.wtg"), "--seed-set", "40"],
    "simulate-capped12-seed": ["simulate", _input("capped12.wtg"), "--seed-set", "1,11"],
    "simulate-unreduced-seed": ["simulate", _input("unreduced.wtg"), "--seed-set", "1"],
    "simulate-directed-pair-seed": ["simulate", _fixture("directed_pair.wtg"), "--seed-set", "1"],
    "simulate-tour7-seed": ["simulate", _input("tour7.wtg"), "--seed-set", "3,4"],
    "simulate-directed-p-seed": ["simulate", _input("directed_p.wtg"), "--seed-set", "9"],
    "simulate-directed-p-lines": ["simulate", _input("directed_p.wtg")],
    "simulate-p3-lines": ["simulate", _fixture("p3_incentives.wtg")],
    "simulate-halves-sevenths": ["simulate", _fixture("halves.wtg"),
                                 "--incentives", _input("incentives_halves.wtg")],
    "simulate-k3-sevenths": ["simulate", _fixture("k3_weighted.wtg"),
                             "--incentives", _input("incentives_k3.wtg")],
    "solve-auto-deg9": ["solve", _input("deg9.wtg")],
    "solve-auto-twolevel8": ["solve", _input("twolevel8.wtg")],
    "solve-auto-minfull9": ["solve", _input("minfull9.wtg")],
    "solve-auto-triangle": ["solve", _fixture("triangle_t2.wtg")],
    "solve-auto-tour7": ["solve", _input("tour7.wtg")],
    "solve-auto-minfull-comps": ["solve", _input("minfull_comps.wtg")],
    "solve-auto-twolevel-low": ["solve", _input("twolevel_low.wtg")],
    "solve-degenerate-deg9": ["solve", _input("deg9.wtg"), "--method", "degenerate"],
    "solve-degenerate-halves": ["solve", _fixture("halves.wtg"), "--method", "degenerate"],
    "solve-algorithm-one-deg9": ["solve", _input("deg9.wtg"), "--method", "algorithm-one"],
    "solve-two-level-twolevel8": ["solve", _input("twolevel8.wtg"), "--method", "two-level"],
    "solve-two-level-triangle": ["solve", _input("triangle_t1.wtg"), "--method", "two-level"],
    "solve-min-or-full-minfull9": ["solve", _input("minfull9.wtg"), "--method", "min-or-full"],
    "solve-min-or-full-minfull-comps": ["solve", _input("minfull_comps.wtg"),
                                        "--method", "min-or-full"],
    "solve-vc-bound-cubic10": ["solve", _input("cubic10.wtg"), "--method", "vc-bound"],
    "oracle-target-set-deg9": ["oracle", "target-set", _input("deg9.wtg")],
    "oracle-target-set-tour7": ["oracle", "target-set", _input("tour7.wtg")],
    "oracle-target-set-noncontig": ["oracle", "target-set", _input("noncontig.wtg")],
    "oracle-target-vector-deg9": ["oracle", "target-vector", _input("deg9.wtg")],
    "oracle-target-vector-tour7": ["oracle", "target-vector", _input("tour7.wtg")],
    "oracle-target-vector-directed-p": ["oracle", "target-vector", _input("directed_p.wtg")],
    "oracle-vertex-cover-cubic10": ["oracle", "vertex-cover", _input("cubic10.wtg")],
    "oracle-vertex-cover-capped12": ["oracle", "vertex-cover", _input("capped12.wtg")],
    "degeneracy-deg9": ["degeneracy", _input("deg9.wtg")],
    "degeneracy-triangle": ["degeneracy", _fixture("triangle_t2.wtg")],
    "degeneracy-capped12": ["degeneracy", _input("capped12.wtg")],
    "check-kappa": ["check", "kappa", "--instances", "8"],
    "check-bidirected": ["check", "bidirected", "--instances", "8"],
    "check-prop1-preservation": ["check", "prop1-preservation", "--instances", "8"],
    "check-two-level": ["check", "two-level", "--instances", "8"],
    "reduce-prop1-p3": ["reduce", "prop1", _fixture("p3.wtg")],
    "reduce-prop3-triangle": ["reduce", "prop3", _fixture("triangle_t2.wtg")],
    "reduce-bidirect-halves": ["reduce", "bidirect", _fixture("halves.wtg")],
    "reduce-bidirect-unreduced": ["reduce", "bidirect", _input("unreduced.wtg")],
    "gen-cubic-n8": ["gen", "--family", "cubic", "--n", "8", "--seed", "4"],
    "gen-degenerate-n8": ["gen", "--family", "degenerate", "--n", "8", "--seed", "7"],
    "gen-tournament-n6": ["gen", "--family", "tournament", "--n", "6", "--seed", "3"],
    "gen-degenerate-slack0": ["gen", "--family", "degenerate", "--n", "9", "--seed", "5",
                              "--weights", "halves", "--max-slack", "0"],
    "gen-random-int": ["gen", "--n", "8", "--seed", "11", "--weights", "int"],
    "gen-random-unit": ["gen", "--n", "8", "--seed", "12", "--weights", "unit",
                        "--tau-policy", "degree-range"],
    "gen-uniform-halves": ["gen", "--n", "8", "--seed", "21", "--weights", "halves",
                           "--tau-policy", "uniform"],
    "gen-capped-halves": ["gen", "--n", "8", "--seed", "22", "--weights", "halves",
                          "--tau-policy", "capped"],
    "gen-fixed-halves": ["gen", "--n", "8", "--seed", "23", "--weights", "halves",
                         "--tau-policy", "fixed", "--fixed-tau", "5/2"],
    "gen-two-level-halves": ["gen", "--n", "8", "--seed", "24", "--weights", "halves",
                             "--tau-policy", "two-level", "--connected"],
    "gen-min-or-full-halves": ["gen", "--n", "8", "--seed", "25", "--weights", "halves",
                               "--tau-policy", "min-or-full"],
    "gen-degree-range-halves": ["gen", "--n", "8", "--seed", "26", "--weights", "halves",
                                "--tau-policy", "degree-range"],
}


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--deterministic"])
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _report(CASES[name]).encode() == expected


if __name__ == "__main__":
    for case, args in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_bytes(_report(args).encode())
