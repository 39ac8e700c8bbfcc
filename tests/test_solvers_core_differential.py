"""The solvers against the model's documented vectors.

The library peels on its integer view, masks the removed edge of a
two-level instance, labels components with one search and pays min-or-full
in closed form, making Fractions only for the report. The model pays each
vertex its slack from its own peel, removes the edge from the peel, finds
components by merging edge by edge and states min-or-full's closed form
over Fractions. Every solver, `classify_and_solve` and each choice of
removed edge must give the same report (values, vertex order, cost,
certificate) or the same refusal with the same message; the dispatcher
and the three solvers are also run on directed instances. Components, the
connectivity test and the complement-ordering check are compared in the
same way.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from targetset import (
    Instance,
    SolveReport,
    classify_and_solve,
    connected_components,
    is_connected,
    kappa_complement_check,
    solve_degenerate,
    solve_min_or_full,
    solve_two_level,
)

import model

# Zero weights, and denominators whose LCM mixes coprime factors.
_WEIGHTS = model.rationals(9)
_instances = model.patterned(("two-level", "all-low", "min-or-full", "mixed"), weights=_WEIGHTS)


def _outcome(call, *args):
    result = model.outcome(call, *args)
    if isinstance(result, SolveReport):
        assert type(result.cost) is Fraction
        assert all(type(x) is Fraction for x in result.incentives.values())
        # Same vertex order as well as the same values.
        return result, list(result.incentives)
    return result


@given(_instances)
@settings(max_examples=600, deadline=None)
def test_solvers_match_the_model(instance):
    assert _outcome(classify_and_solve, instance) == _outcome(model.classify_and_solve, instance)
    assert _outcome(solve_degenerate, instance) == _outcome(model.solve_degenerate, instance)
    assert _outcome(solve_two_level, instance) == _outcome(model.solve_two_level, instance)
    assert _outcome(solve_min_or_full, instance) == _outcome(model.solve_min_or_full, instance)


@given(model.patterned(("two-level", "all-low", "min-or-full", "mixed"), modes=(model.UNDIRECTED, model.DIRECTED),
                       weights=_WEIGHTS))
@settings(max_examples=300, deadline=None)
def test_the_dispatcher_matches_the_model_in_both_modes(instance):
    # The dispatcher answers None on a directed instance without asking the solvers, which refuse it.
    assert _outcome(classify_and_solve, instance) == _outcome(model.classify_and_solve, instance)
    assert _outcome(solve_degenerate, instance) == _outcome(model.solve_degenerate, instance)
    assert _outcome(solve_two_level, instance) == _outcome(model.solve_two_level, instance)
    assert _outcome(solve_min_or_full, instance) == _outcome(model.solve_min_or_full, instance)


@given(_instances, st.data())
@settings(max_examples=300, deadline=None)
def test_every_removed_edge_matches_the_model(instance, data):
    # Every edge in both orientations, plus a pair that is no edge at all.
    pairs = [(u, v) for u, v, _ in instance.edges] + [(v, u) for u, v, _ in instance.edges]
    pairs.append((instance.vertices[0], data.draw(st.integers(1, 120))))
    for pair in pairs:
        assert _outcome(solve_two_level, instance, pair) == _outcome(model.solve_two_level, instance, pair)


@given(model.graphs(max_n=10, weights=_WEIGHTS))
@settings(max_examples=200, deadline=None)
def test_components_match_the_model(graph):
    _, ids, edges = graph
    for mode in (model.UNDIRECTED, model.DIRECTED):
        if mode == model.UNDIRECTED and len({frozenset(e[:2]) for e in edges}) < len(edges):
            continue
        instance = Instance(mode, ids, edges, dict.fromkeys(ids, 0))
        assert connected_components(instance) == model.components(instance)
        assert is_connected(instance) == (len(model.components(instance)) <= 1)


@st.composite
def _kappa_cases(draw):
    _, ids, edges = draw(model.graphs(modes=(model.UNDIRECTED,), min_n=1, max_n=10, weights=st.just(Fraction(1))))
    degree = dict.fromkeys(ids, 0)
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    tau = {v: draw(st.integers(1, max(degree[v], 1))) for v in ids}
    target = draw(st.lists(st.sampled_from(ids), unique=True))
    return Instance(model.UNDIRECTED, ids, edges, tau), target


@given(_kappa_cases())
@settings(max_examples=200, deadline=None)
def test_kappa_check_matches_the_model(case):
    instance, target = case
    assert (model.outcome(kappa_complement_check, instance, target)
            == model.outcome(model.complement_orders, instance, target))
