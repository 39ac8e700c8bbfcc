"""The integer round loop against the Fraction simulator it replaced.

`_run_rounds`, `_initial_from_seed` and `_closure_size` below are the
engine's former Fraction implementations, kept as the reference; the only
edit is that the out-adjacency they read is now built by `_out_adjacency`
here instead of a cached `Instance` property.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    ActivationTrace,
    Instance,
    is_target_set,
    is_target_vector,
    run_activation,
    run_with_incentives,
)


def _out_adjacency(instance):
    adj = {v: [] for v in instance.vertices}
    for u, v, w in instance.edges:
        adj[u].append((v, w))
        if instance.mode == UNDIRECTED:
            adj[v].append((u, w))
    return {v: tuple(pairs) for v, pairs in adj.items()}


def _run_rounds(instance: Instance, initially_active, p) -> ActivationTrace:
    tau = instance.tau
    out = _out_adjacency(instance)
    received = {v: Fraction(0) for v in instance.vertices}
    active = set(initially_active)
    rounds = [frozenset(active)]
    frontier = active
    while frontier:
        for v in frontier:
            for u, w in out[v]:
                received[u] += w
        frontier = {
            x
            for x in instance.vertices
            if x not in active and received[x] + p.get(x, 0) >= tau[x]
        }
        if frontier:
            active |= frontier
            rounds.append(frozenset(frontier))
    return ActivationTrace(tuple(rounds), frozenset(active), len(rounds) - 1)


def _initial_from_seed(instance: Instance, seed) -> set[int]:
    seed = frozenset(seed)
    stray = seed - instance.vertex_set
    if stray:
        raise ValueError(f"seed contains unknown vertices: {sorted(stray)}")
    return set(seed) | {v for v in instance.vertices if instance.tau[v] <= 0}


def _closure_size(instance: Instance, start, p) -> int:
    # Queue-based closure; same final set as the round simulation, cheaper
    # when the round structure is not needed.
    tau = instance.tau
    out = _out_adjacency(instance)
    received = {v: Fraction(0) for v in instance.vertices}
    active = set(start)
    stack = list(active)
    while stack:
        v = stack.pop()
        for u, w in out[v]:
            if u in active:
                continue
            received[u] += w
            if received[u] + p.get(u, 0) >= tau[u]:
                active.add(u)
                stack.append(u)
    return len(active)


# Weights and thresholds include 0; incentives use denominators such as 7,
# 9 and 11 that never divide the instance's scale.
_values = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6]))
_incentive_values = st.builds(Fraction, st.integers(0, 40),
                              st.sampled_from([1, 2, 3, 5, 7, 9, 11, 14]))


@st.composite
def _instances(draw):
    mode = draw(st.sampled_from([UNDIRECTED, DIRECTED]))
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for u in ids for v in ids
             if u != v and (mode == DIRECTED or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((u, v, draw(_values)) for u, v in chosen)
    tau = {v: draw(_values) for v in ids}
    return Instance(mode, tuple(ids), edges, tau)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_seeded_runs_match_reference(data):
    inst = data.draw(_instances())
    seed = data.draw(st.frozensets(st.sampled_from(inst.vertices)))
    start = _initial_from_seed(inst, seed)
    reference = _run_rounds(inst, start, {})
    assert run_activation(inst, seed) == reference
    assert is_target_set(inst, seed) == (_closure_size(inst, start, {}) == inst.n)
    assert is_target_set(inst, seed) == (reference.final_active == inst.vertex_set)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_incentive_runs_match_reference(data):
    inst = data.draw(_instances())
    p = data.draw(st.dictionaries(st.sampled_from(inst.vertices), _incentive_values))
    start = {v for v in inst.vertices if p.get(v, 0) >= inst.tau[v]}
    reference = _run_rounds(inst, start, p)
    assert run_with_incentives(inst, p) == reference
    assert is_target_vector(inst, p) == (_closure_size(inst, start, p) == inst.n)
    assert is_target_vector(inst, p) == (reference.final_active == inst.vertex_set)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_unknown_seed_ids_raise_like_the_reference(data):
    # The seed mixes known and unknown ids; the message lists only the unknown ones, sorted.
    inst = data.draw(_instances())
    known = data.draw(st.frozensets(st.sampled_from(inst.vertices), min_size=1))
    unknown = data.draw(st.frozensets(st.integers(-5, 80).filter(lambda v: v not in inst.vertex_set),
                                      min_size=1))
    with pytest.raises(ValueError) as reference:
        _initial_from_seed(inst, known | unknown)
    for run in (run_activation, is_target_set):
        with pytest.raises(ValueError) as got:
            run(inst, known | unknown)
        assert str(got.value) == str(reference.value) == f"seed contains unknown vertices: {sorted(unknown)}"
