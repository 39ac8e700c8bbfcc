"""Activation engine: traces, incentives, verification predicates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    UNDIRECTED,
    GenSpec,
    Instance,
    build_incentives,
    build_instance,
    exact_min_target_vector,
    generate,
    incentive_cost,
    is_target_set,
    is_target_vector,
    kappa_complement_check,
    run_activation,
    run_with_incentives,
    solve_two_level,
    tss_to_complete,
)


def path3(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], tau)


def triangle(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], tau)


def test_chain_activates_round_by_round():
    trace = run_activation(path3(), {1})
    assert trace.rounds == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert trace.final_active == {1, 2, 3}
    assert trace.num_rounds == 2


def test_empty_seed_with_positive_thresholds_stays_empty():
    trace = run_activation(triangle(), set())
    assert trace.final_active == frozenset()
    assert trace.rounds == (frozenset(),)


def test_zero_threshold_vertices_self_activate():
    inst = build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], [0, 1, 1])
    trace = run_activation(inst, set())
    assert trace.rounds[0] == {1}
    assert trace.final_active == {1, 2, 3}


def test_complete_embedding_image_runs_like_the_source():
    image = tss_to_complete(path3()).image
    trace = run_activation(image, {1})
    assert trace.rounds == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_incentive_run_triangle():
    inst = triangle(2)
    trace = run_with_incentives(inst, build_incentives(inst, [2, 1, 0]))
    assert trace.rounds == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_incentives_equal_to_thresholds_activate_everything_at_once():
    inst = triangle(2)
    trace = run_with_incentives(inst, dict(inst.tau))
    assert trace.rounds == (frozenset({1, 2, 3}),)
    assert trace.num_rounds == 0


def test_zero_incentives_activate_nothing():
    inst = triangle(2)
    trace = run_with_incentives(inst, build_incentives(inst, 0))
    assert trace.final_active == frozenset()


def test_is_target_set_examples():
    assert is_target_set(path3(), {1})
    assert is_target_set(path3(), {1, 2, 3})
    assert not is_target_set(triangle(2), {1})


def test_single_unit_incentive_is_optimal_on_unit_triangle():
    inst = triangle()
    p = build_incentives(inst, [1, 0, 0])
    assert is_target_vector(inst, p)
    assert incentive_cost(p) == 1
    assert exact_min_target_vector(inst).optimum == 1


def test_incentive_cost_sums_exactly():
    assert incentive_cost({}) == 0
    assert incentive_cost({1: Fraction(1), 2: Fraction(0)}) == 1
    inst = triangle(2)
    assert incentive_cost(dict(inst.tau)) == 6


def test_unknown_seed_vertex_rejected():
    with pytest.raises(ValueError):
        run_activation(path3(), {9})


def test_bad_incentive_vectors_rejected():
    inst = path3()
    with pytest.raises(ValueError):
        run_with_incentives(inst, {9: Fraction(1)})
    with pytest.raises(ValueError):
        run_with_incentives(inst, {1: Fraction(-1)})


@pytest.mark.parametrize("value", [1.0, "1", True])
def test_inexact_incentives_raise_type_error(value):
    # A float or str used to fail on `.numerator`, and True counted as a payment of 1.
    for run in (run_with_incentives, is_target_vector):
        with pytest.raises(TypeError, match=f"incentive {value!r} at vertex 1 is a {type(value).__name__}"):
            run(path3(), {1: value})


@pytest.mark.parametrize("seed", [{True}, {1.0}, {"1"}, {1, 2.0}])
def test_inexact_seed_ids_raise_type_error(seed):
    # True and 1.0 used to seed vertex 1, and "1" to be reported as an unknown vertex.
    for run in (run_activation, is_target_set):
        with pytest.raises(TypeError, match="expected an int"):
            run(path3(), seed)


@pytest.mark.parametrize("call", [
    lambda: run_with_incentives(path3(), {True: Fraction(1)}),
    lambda: kappa_complement_check(path3(), {True}),
    lambda: build_incentives(path3(), {True: 1, 1: 2}),
    lambda: solve_two_level(triangle(), removed_edge=(True, 2)),
], ids=["incentive-key", "kappa-target", "build-incentives-key", "removed-edge"])
def test_bool_vertex_ids_raise_type_error(call):
    # Each used to answer for vertex 1.
    with pytest.raises(TypeError, match="vertex id True is a bool, expected an int"):
        call()


def _random_instance_and_seeds(seed):
    rng = random.Random(seed)
    inst = generate(GenSpec(n=rng.randint(1, 8), seed=seed,
                            edge_prob=rng.choice((0.3, 0.6))))
    small = frozenset(v for v in inst.vertices if rng.random() < 0.3)
    big = small | frozenset(v for v in inst.vertices if rng.random() < 0.3)
    return inst, small, big


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_seed_monotonicity(seed):
    inst, small, big = _random_instance_and_seeds(seed)
    assert run_activation(inst, small).final_active <= run_activation(inst, big).final_active


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_incentive_monotonicity(seed):
    rng = random.Random(seed)
    inst = generate(GenSpec(n=rng.randint(1, 8), seed=seed))
    low = {v: Fraction(rng.randint(0, 3), 2) for v in inst.vertices}
    high = {v: low[v] + Fraction(rng.randint(0, 2), 2) for v in inst.vertices}
    assert (run_with_incentives(inst, low).final_active
            <= run_with_incentives(inst, high).final_active)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_trace_invariants(seed):
    inst, small, _ = _random_instance_and_seeds(seed)
    trace = run_activation(inst, small)
    seen = set()
    for i, members in enumerate(trace.rounds):
        assert not (members & seen)
        if i > 0:
            assert members
        seen |= members
    assert seen == trace.final_active
    assert trace.num_rounds <= inst.n
    assert run_activation(inst, small) == trace  # determinism
    assert is_target_set(inst, small) == (trace.final_active == inst.vertex_set)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_removing_an_edge_never_helps(seed):
    inst, small, _ = _random_instance_and_seeds(seed)
    if not inst.edges:
        return
    rng = random.Random(seed + 1)
    drop = rng.randrange(len(inst.edges))
    reduced = Instance(inst.mode, inst.vertices,
                       inst.edges[:drop] + inst.edges[drop + 1:], inst.tau)
    assert (run_activation(reduced, small).final_active
            <= run_activation(inst, small).final_active)
