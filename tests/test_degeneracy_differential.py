"""Integer peeling against the Fraction implementation it replaced.

`_peel_ordering` and `_slacks_along` below are the former Fraction
implementations of `peel_ordering` and `slacks_along`, kept as the
reference. The only edits: the in-adjacency, the incident totals and the
incident weight sum they read are built here by `_in_adjacency`,
`_incident_totals` and `_incident_weight_sum`, all in Fractions, because
the library now derives them from the integer view.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from targetset import (
    UNDIRECTED,
    DegeneracyOrdering,
    Instance,
    NotDegenerate,
    peel_ordering,
    slacks_along,
)


def _in_adjacency(instance):
    adj = {v: [] for v in instance.vertices}
    for u, v, w in instance.edges:
        adj[v].append((u, w))
        if instance.mode == UNDIRECTED:
            adj[u].append((v, w))
    return {v: tuple(pairs) for v, pairs in adj.items()}


def _incident_totals(instance):
    adj = _in_adjacency(instance)
    return {v: sum((w for _, w in adj[v]), start=Fraction(0)) for v in instance.vertices}


def _incident_weight_sum(instance, v, within):
    total = Fraction(0)
    for u, w in _in_adjacency(instance)[v]:
        if u in within:
            total += w
    return total


def _peel_ordering(instance: Instance):
    residual = dict(_incident_totals(instance))
    in_adjacency = _in_adjacency(instance)
    alive = set(instance.vertices)
    scan_order = sorted(instance.vertices)
    deletion: list[int] = []
    slacks: dict[int, Fraction] = {}
    for _ in range(instance.n):
        pick = None
        for v in scan_order:
            if v in alive and instance.tau[v] >= residual[v]:
                pick = v
                break
        if pick is None:
            return NotDegenerate(frozenset(alive))
        slacks[pick] = instance.tau[pick] - residual[pick]
        deletion.append(pick)
        alive.remove(pick)
        for u, w in in_adjacency[pick]:
            if u in alive:
                residual[u] -= w
    return DegeneracyOrdering(tuple(reversed(deletion)), slacks)


def _slacks_along(instance: Instance, order) -> dict[int, Fraction]:
    order = tuple(order)
    if len(order) != instance.n or set(order) != instance.vertex_set:
        raise ValueError("order is not a permutation of the instance's vertices")
    earlier: set[int] = set()
    slacks: dict[int, Fraction] = {}
    for v in order:
        slack = instance.tau[v] - _incident_weight_sum(instance, v, earlier)
        if slack < 0:
            raise ValueError(f"not a degeneracy ordering: vertex {v} has slack {slack}")
        slacks[v] = slack
        earlier.add(v)
    return slacks


# Weights include 0 and use denominators 7, 9 and 11, so the scale is a
# product of coprime factors; thresholds include 0 and reach past a typical
# incident sum, so both peeling outcomes occur often.
_weights = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 7, 9, 11]))
_thresholds = st.builds(Fraction, st.integers(0, 30), st.sampled_from([1, 7, 9, 11]))


@st.composite
def _instances(draw):
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique_by=frozenset)) if pairs else []
    edges = tuple((u, v, draw(_weights)) for u, v in chosen)
    tau = {v: draw(_thresholds) for v in ids}
    return Instance(UNDIRECTED, tuple(ids), edges, tau)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_peeling_matches_reference(data):
    inst = data.draw(_instances())
    reference = _peel_ordering(inst)
    got = peel_ordering(inst)
    assert got == reference
    if isinstance(got, DegeneracyOrdering):
        assert list(got.slacks.items()) == list(reference.slacks.items())
        assert slacks_along(inst, got.order) == _slacks_along(inst, got.order)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_slacks_along_matches_reference(data):
    inst = data.draw(_instances())
    order = data.draw(st.permutations(inst.vertices))
    got = _outcome(slacks_along, inst, order)
    assert got == _outcome(_slacks_along, inst, order)
    if isinstance(got, dict):
        assert list(got) == list(order)
