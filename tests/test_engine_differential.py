"""The activation engine against the model's round-by-round definition.

`model.activation` recomputes every inactive vertex's received weight each
round and activates all that reach their threshold at once; the engine
examines only the out-neighbours of the round before, on its integer view.
Both must give the same trace, and the verdict of `is_target_set` and
`is_target_vector` must be whether that trace ends with every vertex.
Incentives use denominators that never divide the instance's scale, and
some fall just short of a threshold, where the engine floors a scaled
payment.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import is_target_set, is_target_vector, run_activation, run_with_incentives

import model

_SMALL = model.rationals(12, (1, 2, 3, 4, 6))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_seeded_runs_match_the_model(data):
    inst = data.draw(model.instances(min_n=1, weights=_SMALL, thresholds=_SMALL))
    seed = data.draw(st.frozensets(st.sampled_from(inst.vertices)))
    expected = model.activation(inst, seed)
    assert run_activation(inst, seed) == expected
    assert is_target_set(inst, seed) == (expected.final_active == set(inst.vertices))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_incentive_runs_match_the_model(data):
    inst = data.draw(model.instances(min_n=1, weights=_SMALL, thresholds=_SMALL))
    # A payment a thirteenth short of the threshold falls between two multiples of 1/scale,
    # where the engine floors it.
    paid = data.draw(st.lists(st.sampled_from(inst.vertices), unique=True))
    p = {v: data.draw(st.one_of(model.INCENTIVES, st.just(max(inst.tau[v] - Fraction(1, 13), Fraction(0)))))
         for v in paid}
    expected = model.activation(inst, incentives=p)
    assert run_with_incentives(inst, p) == expected
    assert is_target_vector(inst, p) == (expected.final_active == set(inst.vertices))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_unknown_seed_ids_are_listed_sorted(data):
    # The seed mixes known and unknown ids; the message lists only the unknown ones, sorted.
    inst = data.draw(model.instances(min_n=1, weights=_SMALL, thresholds=_SMALL))
    known = data.draw(st.frozensets(st.sampled_from(inst.vertices), min_size=1))
    unknown = data.draw(st.frozensets(st.integers(-5, 80).filter(lambda v: v not in inst.vertices), min_size=1))
    for run in (run_activation, is_target_set):
        with pytest.raises(ValueError) as got:
            run(inst, known | unknown)
        assert str(got.value) == f"seed contains unknown vertices: {sorted(unknown)}"
