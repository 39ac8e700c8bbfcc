"""Peeling, the exhaustive subgraph check, and the ordering certificates."""

import random
from fractions import Fraction

import pytest

from targetset import (
    DegeneracyOrdering,
    GenSpec,
    NotDegenerate,
    OracleLimitError,
    PreconditionError,
    UNDIRECTED,
    brute_degeneracy_check,
    build_instance,
    generate,
    is_target_set,
    kappa_complement_check,
    peel_ordering,
)
from targetset.instance import SUBSET_TABLE_CEILING


def _weight_within(instance, v, within):
    """Weight on the edges joining v to members of `within` (undirected)."""
    return sum((w for a, b, w in instance.edges if v in (a, b) and (b if a == v else a) in within),
               start=Fraction(0))


def _slacks_along(instance, order):
    """Each vertex's threshold minus its weight from earlier vertices in `order`."""
    return {v: instance.tau[v] - _weight_within(instance, v, order[:k])
            for k, v in enumerate(order)}


def path3(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], tau)


def triangle(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], tau)


def test_peel_path_succeeds_with_nonnegative_slacks():
    got = peel_ordering(path3())
    assert isinstance(got, DegeneracyOrdering)
    assert got.order == (3, 2, 1)
    assert got.slacks == {3: Fraction(1), 2: Fraction(0), 1: Fraction(0)}


def test_peel_unit_triangle_reports_the_stuck_set():
    got = peel_ordering(triangle())
    assert isinstance(got, NotDegenerate)
    assert got.stuck == {1, 2, 3}
    # the witness itself violates the degeneracy condition
    assert all(
        triangle().tau[v] < _weight_within(triangle(), v, got.stuck)
        for v in got.stuck
    )


def test_peel_edgeless_anything_goes():
    inst = build_instance(UNDIRECTED, 3, [], [2, 0, "7/2"])
    got = peel_ordering(inst)
    assert isinstance(got, DegeneracyOrdering)
    assert got.slacks == dict(inst.tau)


def test_peel_rejects_directed_input():
    with pytest.raises(PreconditionError):
        peel_ordering(build_instance("directed", 2, [(1, 2)], 1))


def test_brute_check_examples():
    assert brute_degeneracy_check(build_instance(UNDIRECTED, 1, [], 0))
    assert not brute_degeneracy_check(triangle(1))
    assert brute_degeneracy_check(triangle(2))


def test_brute_check_respects_its_limit():
    with pytest.raises(OracleLimitError):
        brute_degeneracy_check(build_instance(UNDIRECTED, 5, [], 1), limit=4)


def test_brute_check_refuses_more_vertices_than_the_subset_table_ceiling():
    n = SUBSET_TABLE_CEILING + 1
    with pytest.raises(OracleLimitError, match="subset-table ceiling"):
        brute_degeneracy_check(build_instance(UNDIRECTED, n, [], 1), limit=n)


def test_peel_matches_brute_check_on_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        inst = generate(GenSpec(n=rng.randint(1, 8), seed=rng.randrange(2**32),
                                edge_prob=rng.choice((0.3, 0.6, 0.9))))
        ordered = isinstance(peel_ordering(inst), DegeneracyOrdering)
        assert ordered == brute_degeneracy_check(inst)


def test_slack_identity_covers_every_edge_once():
    rng = random.Random(11)
    for _ in range(40):
        inst = generate(GenSpec(family="degenerate", n=rng.randint(1, 9),
                                seed=rng.randrange(2**32)))
        got = peel_ordering(inst)
        assert isinstance(got, DegeneracyOrdering)
        covered = sum((inst.tau[v] - got.slacks[v] for v in inst.vertices),
                      start=Fraction(0))
        assert covered == inst.total_weight
        assert _slacks_along(inst, got.order) == got.slacks


def test_kappa_examples():
    inst = path3()
    assert kappa_complement_check(inst, {1, 2, 3})
    assert kappa_complement_check(inst, {1})
    assert not kappa_complement_check(triangle(2), {1})


def test_kappa_preconditions():
    weighted = build_instance(UNDIRECTED, 2, [(1, 2, 2)], 1)
    with pytest.raises(PreconditionError):
        kappa_complement_check(weighted, {1})
    too_big_tau = build_instance(UNDIRECTED, 2, [(1, 2)], 5)
    with pytest.raises(PreconditionError):
        kappa_complement_check(too_big_tau, {1})


def test_kappa_agrees_with_engine_on_random_instances():
    from targetset.checks import random_tss_instance

    rng = random.Random(5)
    for _ in range(40):
        inst = random_tss_instance(rng, rng.randint(2, 8))
        target = frozenset(v for v in inst.vertices if rng.random() < 0.5)
        assert kappa_complement_check(inst, target) == is_target_set(inst, target)
