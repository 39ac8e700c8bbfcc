"""Peeling against the model's peel.

`model.peel_ordering` rescans the live vertices in ascending id order after
every deletion and recomputes each one's weight from the live rest; the
library keeps residuals on its integer view and a heap of eligible
positions. Both must return the same ordering, with the slacks listed in
the same deletion order, or the same stuck set. Thresholds reach past a
typical incident sum, so both outcomes occur often.
"""

from hypothesis import given, settings

from targetset import DegeneracyOrdering, peel_ordering

import model


@given(model.instances(modes=(model.UNDIRECTED,), min_n=1))
@settings(max_examples=400, deadline=None)
def test_peeling_matches_the_model(inst):
    expected = model.peel_ordering(inst)
    got = peel_ordering(inst)
    assert got == expected
    if isinstance(got, DegeneracyOrdering):
        assert list(got.slacks.items()) == list(expected.slacks.items())
