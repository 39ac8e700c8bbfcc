"""Integer class tests against the Fraction implementations they replaced.

`_min_edge_weight`, `_reference_two_level_split` and
`_reference_matches_min_or_full` below are the former Fraction
implementations, kept as the reference. The only edit: the incident totals
they read are built here by `_incident_totals`, in Fractions, because the
library now derives them from the integer view. The library's min-or-full
test is the precondition loop of `solve_min_or_full`.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from targetset import DIRECTED, UNDIRECTED, Instance, PreconditionError, min_edge_weight
from targetset.solvers import _two_level_split, solve_min_or_full


def _incident_totals(instance):
    totals = {v: Fraction(0) for v in instance.vertices}
    for u, v, w in instance.edges:
        totals[v] += w
        if instance.mode == UNDIRECTED:
            totals[u] += w
    return totals


def _min_edge_weight(instance: Instance) -> Fraction:
    if not instance.edges:
        raise ValueError("edgeless instance has no minimum edge weight")
    return min(w for _, _, w in instance.edges)


def _reference_two_level_split(instance: Instance) -> tuple[list[int], Fraction]:
    mu = _min_edge_weight(instance)
    totals = _incident_totals(instance)
    saturated = []
    for v in instance.vertices:
        t = instance.tau[v]
        if t == totals[v]:
            saturated.append(v)
        elif t != totals[v] - mu:
            raise PreconditionError(
                f"vertex {v} has threshold {t}, expected its incident sum "
                f"{totals[v]} or that sum minus {mu}"
            )
    return saturated, mu


def _reference_matches_min_or_full(instance: Instance) -> bool:
    mu = _min_edge_weight(instance)
    totals = _incident_totals(instance)
    return all(
        instance.tau[v] == mu or instance.tau[v] == totals[v] for v in instance.vertices
    )


# Halves, 7ths and 11ths make the scale a product of coprime factors.
_weights = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 7, 11]))


@st.composite
def _instances(draw):
    """Instances with at least one edge whose thresholds mostly sit on a class pattern."""
    mode = draw(st.sampled_from([UNDIRECTED, DIRECTED]))
    ids = draw(st.lists(st.integers(1, 60), min_size=2, max_size=8, unique=True))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    unique_by = frozenset if mode == UNDIRECTED else tuple
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique_by=unique_by))
    edges = tuple((u, v, draw(_weights)) for u, v in chosen)
    probe = Instance(mode, tuple(ids), edges, {v: 0 for v in ids})
    mu = _min_edge_weight(probe)
    totals = _incident_totals(probe)
    pattern = draw(st.sampled_from(["two-level", "min-or-full", "mixed"]))
    tau = {}
    for v in ids:
        options = [totals[v]]
        if pattern != "min-or-full" and totals[v] >= mu:
            options.append(totals[v] - mu)
        if pattern != "two-level":
            options.append(mu)
        if pattern == "mixed":
            options.append(draw(_weights))
        tau[v] = draw(st.sampled_from(options))
    return Instance(mode, tuple(ids), edges, tau)


def _outcome(call, instance):
    try:
        return call(instance)
    except PreconditionError as exc:
        return str(exc)


@given(_instances())
@settings(max_examples=400, deadline=None)
def test_class_tests_match_reference(instance):
    mu = min_edge_weight(instance)
    assert type(mu) is Fraction and mu == _min_edge_weight(instance)
    expected = _outcome(_reference_two_level_split, instance)
    if isinstance(expected, tuple):
        expected = expected[0]  # the saturated vertices
    assert _outcome(_two_level_split, instance) == expected
    if instance.mode == UNDIRECTED:
        got = _outcome(solve_min_or_full, instance)
        off_pattern = isinstance(got, str) and "expected the minimum edge weight" in got
        assert off_pattern == (not _reference_matches_min_or_full(instance))
