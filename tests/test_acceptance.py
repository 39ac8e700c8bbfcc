"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every criterion is exact (rational arithmetic, zero tolerance).
"""

from targetset import checks
from targetset.cli import main
from targetset.wtg import parse_wtg, serialize_wtg

from conftest import FIXTURES

# Sweep -> (instances, max_n) for criteria 1-11, written out rather than read
# from `checks.CHECKS`, whose defaults must equal them.
SWEEPS = {
    "degeneracy-oracle": (500, 12),
    "algorithm-one": (300, 10),
    "otvw-degenerate": (300, 9),
    "two-level": (200, 9),
    "min-or-full": (200, 9),
    "prop1-preservation": (100, 7),
    "prop3-preservation": (100, 6),
    "bounds": (150, 8),
    "bidirected": (100, 8),
    "kappa": (200, 10),
    "otv-grid": (300, 4),
}


def _report(number: int, result: checks.CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] criterion {number:02d} {status} {result.name} "
          f"(checked={result.checked}, failures={len(result.failures)})")
    for message in result.failures[:5]:
        print(f"[acceptance]     {message}")
    assert result.passed, f"criterion {number} failed: {result.failures[:5]}"


def _criterion(number: int, name: str) -> None:
    instances, max_n = SWEEPS[name]
    _report(number, checks.run_check(name, instances=instances, max_n=max_n, seed=0))


def test_sweep_defaults_are_the_acceptance_values():
    assert {name: (instances, max_n) for name, (_, instances, max_n) in checks.CHECKS.items()} == SWEEPS


def test_criterion_01_degeneracy_soundness_completeness():
    _criterion(1, "degeneracy-oracle")


def test_criterion_02_approximation_guarantee():
    _criterion(2, "algorithm-one")


def test_criterion_03_degenerate_vector_optimality():
    _criterion(3, "otvw-degenerate")


def test_criterion_04_two_level_solver():
    _criterion(4, "two-level")


def test_criterion_05_min_or_full_solver():
    _criterion(5, "min-or-full")


def test_criterion_06_complete_embedding_preservation():
    _criterion(6, "prop1-preservation")


def test_criterion_07_hub_embedding_preservation():
    _criterion(7, "prop3-preservation")


def test_criterion_08_bounds_sandwich():
    _criterion(8, "bounds")


def test_criterion_09_directed_consistency():
    _criterion(9, "bidirected")


def test_criterion_10_kappa_equivalence():
    _criterion(10, "kappa")


def test_criterion_11_vector_oracle_vs_grid_search():
    _criterion(11, "otv-grid")


def test_criterion_12_toolkit_round_trip_and_determinism(tmp_path, capsys):
    failures = []
    fixture_files = sorted(FIXTURES.glob("*.wtg"))
    for path in fixture_files:
        text = path.read_text()
        instance, incentives = parse_wtg(text)
        if serialize_wtg(instance, incentives) != text:
            failures.append(f"{path.name}: round trip changed the file")
    runs = []
    for _ in range(2):
        code = main(["solve", "--method", "degenerate",
                     str(FIXTURES / "p3.wtg"), "--deterministic"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append("deterministic solve run failed")
        runs.append(out)
    if runs[0] != runs[1]:
        failures.append("deterministic runs were not byte-identical")
    if "wall_ms" in runs[0]:
        failures.append("deterministic run still contains wall time")
    result = checks.CheckResult("toolkit", len(fixture_files) + 1, failures)
    _report(12, result)
