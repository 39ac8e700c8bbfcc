"""The solvers' class tests against the model's.

The library tests the two-level pattern (`_two_level_split`) and the
min-or-full pattern (the precondition loop of `solve_min_or_full`) on its
integer view; the model compares each Fraction threshold with the vertex's
incident (incoming, in directed mode) sum and the least edge weight. They
must agree on the least weight, on the saturated vertices or the first
vertex off the pattern and its message, and on the min-or-full verdict.
"""

from fractions import Fraction

from hypothesis import given, settings

from targetset import SolveReport, min_edge_weight
from targetset.solvers import _two_level_split, solve_min_or_full

import model


@given(model.patterned(("two-level", "min-or-full", "mixed"), modes=(model.UNDIRECTED, model.DIRECTED), min_n=2,
                       max_n=8, weights=model.rationals(12, (1, 2, 7, 11), low=1), min_edges=1))
@settings(max_examples=400, deadline=None)
def test_class_tests_match_the_model(instance):
    mu = min_edge_weight(instance)
    assert type(mu) is Fraction and mu == model.min_weight(instance)
    assert model.outcome(_two_level_split, instance) == model.outcome(model.two_level_split, instance)
    if instance.mode == model.UNDIRECTED:
        got = model.outcome(solve_min_or_full, instance)
        if model.is_min_or_full(instance):
            assert isinstance(got, SolveReport)
        else:
            assert got[0] == "PreconditionError" and "expected the minimum edge weight" in got[1]
