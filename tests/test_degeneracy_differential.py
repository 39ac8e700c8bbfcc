"""Integer peeling against the Fraction implementation it replaced.

`_peel_ordering` below is the former Fraction implementation of
`peel_ordering`, kept as the reference. The only edit: the in-adjacency and
the incident totals it reads are built here by `_in_adjacency` and
`_incident_totals`, in Fractions, because the library now derives them from
the integer view.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from targetset import (
    UNDIRECTED,
    DegeneracyOrdering,
    Instance,
    NotDegenerate,
    peel_ordering,
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


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_peeling_matches_reference(data):
    inst = data.draw(_instances())
    reference = _peel_ordering(inst)
    got = peel_ordering(inst)
    assert got == reference
    if isinstance(got, DegeneracyOrdering):
        assert list(got.slacks.items()) == list(reference.slacks.items())
