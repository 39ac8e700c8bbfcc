"""Failure text of every check sweep under injected faults.

Faults go into the names `targetset.checks` imports: every k-th oracle call
reports an optimum one too high, and every k-th predicate call gives the
opposite answer. Each sweep's `checked` count and failure list, in order,
must match `fixtures/check_failures.json`. To rewrite that file after an
intended change to the failure text, run
`PYTHONPATH=src python tests/test_checks.py`.
"""

import dataclasses
import json
import pathlib
import random

import pytest

from targetset import checks

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "check_failures.json"
ORACLES = ("exact_min_target_set", "exact_min_target_vector")
# fault setting -> {patched name: k}; kappa's k differs from is_target_set's
# so that its sweep, which compares the two, sees the flips. prop1-preservation
# asks the engine through `_activates_all` on positions, the others through
# `is_target_set` on ids; both get the same k.
FAULTS = {
    "none": {},
    "oracles": dict.fromkeys(ORACLES, 3),
    "predicates": {"is_target_set": 3, "_activates_all": 3, "is_target_vector": 3,
                   "kappa_complement_check": 5, "brute_degeneracy_check": 3},
    "all": {**dict.fromkeys(ORACLES, 2), "is_target_set": 2, "_activates_all": 2, "is_target_vector": 2,
            "kappa_complement_check": 3, "brute_degeneracy_check": 2},
}
SEEDS = range(4)


def _faulty(fn, k: int, shift: bool):
    calls = 0

    def wrapped(*args, **kwargs):
        nonlocal calls
        calls += 1
        result = fn(*args, **kwargs)
        if calls % k:
            return result
        return dataclasses.replace(result, optimum=result.optimum + 1) if shift else not result

    return wrapped


def _run(fault: str, name: str, seed: int) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        for attr, k in FAULTS[fault].items():
            mp.setattr(checks, attr, _faulty(getattr(checks, attr), k, attr in ORACLES))
        # otv-grid also enumerates every shape up to max_n vertices.
        result = checks.run_check(name, 6, 2 if name == "otv-grid" else 5, seed)
    return {"checked": result.checked, "failures": result.failures}


def _record() -> dict:
    return {f"{fault} {name} {seed}": _run(fault, name, seed)
            for fault in FAULTS for name in sorted(checks.CHECKS) for seed in SEEDS}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
@pytest.mark.parametrize("fault", FAULTS)
def test_failure_text_matches_the_record(expected, fault, name):
    for seed in SEEDS:
        assert _run(fault, name, seed) == expected[f"{fault} {name} {seed}"], seed


def test_record_covers_every_sweep_and_faults_show(expected):
    assert set(expected) == {f"{f} {n} {s}" for f in FAULTS for n in checks.CHECKS for s in SEEDS}
    for name in checks.CHECKS:
        assert not any(expected[f"none {name} {s}"]["failures"] for s in SEEDS), name
        assert any(expected[f"all {name} {s}"]["failures"] for s in SEEDS), name


def _old_slack_spec(rng, n, **overrides):
    """`_algorithm_one`'s and `_otvw_degenerate`'s former draw: `_mixed_spec`, then `max_slack`."""
    drawn = {"seed": checks._child_seed(rng), "edge_prob": rng.choice((0.2, 0.4, 0.6, 0.8)),
             "weights": rng.choice(("int", "halves", "unit"))}
    spec = checks.GenSpec(n=n, **{**drawn, **overrides})
    return dataclasses.replace(spec, max_slack=rng.randint(0, 3))


class _Recording(random.Random):
    """A Random that records each draw with the state after it."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def randrange(self, *args):
        return self._record(super().randrange(*args))

    def choice(self, seq):
        return self._record(super().choice(seq))

    def _record(self, x):
        self.draws.append((x, self.getstate()))
        return x


@pytest.mark.parametrize("seed", range(50))
def test_drawn_slack_keeps_the_former_stream(seed):
    old, new = _Recording(seed), _Recording(seed)
    for _ in range(4):
        n = old.randint(1, 12)
        assert new.randint(1, 12) == n
        spec = _old_slack_spec(old, n, family="degenerate")
        assert checks._mixed_spec(new, n, draw_slack=True, family="degenerate") == spec
    assert len(new.draws) == 4 * 5 and new.draws == old.draws

if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
