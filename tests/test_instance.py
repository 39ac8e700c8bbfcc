"""Instance model: rational parsing, validation, sums."""

import pickle
import random
import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    GenSpec,
    Instance,
    PreconditionError,
    ValidationError,
    VerificationError,
    build_instance,
    classify_and_solve,
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
    generate,
    min_edge_weight,
    parse_rational,
    peel_ordering,
    to_bidirected,
    tss_to_complete,
    validate,
)


def test_parse_rational_accepts_int_and_fraction_forms():
    assert parse_rational("7") == 7
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("6/4") == Fraction(3, 2)


@pytest.mark.parametrize("text", ["1.5", "3/0", "", "x", "1/2/3", "1e3"])
def test_parse_rational_rejects_non_rationals(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def _reference_parse_rational(text: str) -> Fraction:
    """The former `parse_rational`, which re-parsed the whole token with `Fraction(text)`."""
    if not re.fullmatch(r"[+-]?\d+(?:/\d+)?", text):
        raise ValueError(f"not an integer or integer/integer rational: {text!r}")
    if "/" in text and int(text.split("/", 1)[1]) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


def _rational_outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", type(value), value)


# `Fraction` alone accepts "1_0" and rejects "1/0" with ZeroDivisionError.
@pytest.mark.parametrize("text", ["1_0", "٣/٤", "-0/5", "+3", "1/0", "١/٠", "-6/4",
                                  "0", "+0/7", "1.5", "", "3/", "/3", "+-1", " 1"])
def test_parse_rational_matches_fraction_reference(text):
    assert _rational_outcome(parse_rational, text) == _rational_outcome(_reference_parse_rational, text)


def test_validate_minimal_instance_ok():
    assert validate(build_instance(UNDIRECTED, 1, [], 0)) is None


def _violated_rule(build) -> str:
    with pytest.raises(ValidationError) as caught:
        build()
    return caught.value.violation.rule


def test_validate_self_loop():
    assert _violated_rule(lambda: build_instance(UNDIRECTED, 2, [(1, 1)], 1)) == "self-loop"


def test_validate_negative_weight():
    bad = lambda: build_instance(UNDIRECTED, 2, [(1, 2, "-1/2")], 1)
    assert _violated_rule(bad) == "negative-weight"


def test_validate_negative_threshold():
    bad = lambda: build_instance(UNDIRECTED, 2, [(1, 2)], [1, "-1"])
    assert _violated_rule(bad) == "negative-threshold"


def test_validate_duplicate_edge():
    bad = lambda: build_instance(UNDIRECTED, 3, [(1, 2), (2, 1, 2)], 1)
    assert _violated_rule(bad) == "duplicate-edge"


def test_validate_unknown_vertex_in_edge():
    bad = lambda: build_instance(UNDIRECTED, 2, [(1, 5)], 1)
    assert _violated_rule(bad) == "unknown-vertex"


def test_validate_missing_threshold():
    bad = lambda: build_instance(UNDIRECTED, [1, 2], [], {1: 1})
    assert _violated_rule(bad) == "missing-threshold"


def test_validate_directed_opposite_arcs_are_fine():
    inst = build_instance(DIRECTED, 2, [(1, 2, 1), (2, 1, "1/2")], 1)
    assert validate(inst) is None
    same_dir = lambda: build_instance(DIRECTED, 2, [(1, 2, 1), (1, 2, 2)], 1)
    assert _violated_rule(same_dir) == "duplicate-edge"


def test_constructor_rejects_negative_weight():
    with pytest.raises(ValidationError) as caught:
        Instance(UNDIRECTED, (1, 2), ((1, 2, Fraction(-1)),), {1: 1, 2: 1})
    assert caught.value.violation.rule == "negative-weight"


def test_equal_instances_hash_equal():
    a = build_instance(UNDIRECTED, 3, [(1, 2, "1/2"), (2, 3)], [1, 2, "3/4"])
    b = build_instance(UNDIRECTED, 3, [(1, 2, "1/2"), (2, 3)], [1, 2, "3/4"])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equality_ignores_edge_listing_order():
    edges = [(1, 2, "1/2"), (2, 3), (3, 1, 2)]
    a = build_instance(UNDIRECTED, 3, edges, [1, 2, "3/4"])
    b = build_instance(UNDIRECTED, 3, [(1, 3, 2), (3, 2), (2, 1, "1/2")], [1, 2, "3/4"])
    assert a == b and hash(a) == hash(b)
    assert a != build_instance(UNDIRECTED, 3, edges, [1, 2, 1])
    arcs = build_instance(DIRECTED, 2, [(1, 2)], 1)
    assert arcs == build_instance(DIRECTED, 2, [(1, 2)], 1)
    assert arcs != build_instance(DIRECTED, 2, [(2, 1)], 1)
    assert arcs != build_instance(UNDIRECTED, 2, [(1, 2)], 1)


def test_list_arguments_are_stored_as_tuples():
    inst = Instance(UNDIRECTED, [1, 2], [[1, 2, Fraction(1)]], {1: 0, 2: 0})
    same = Instance(UNDIRECTED, (1, 2), ((1, 2, Fraction(1)),), {1: 0, 2: 0})
    assert inst.vertices == (1, 2) and inst.edges == ((1, 2, Fraction(1)),)
    assert inst == same and hash(inst) == hash(same)


@pytest.mark.parametrize("edges, tau, rule", [
    (((1, 2, 0.5),), {1: 1, 2: 1}, "bad-weight"),
    (((1, 2, Fraction(1)),), {1: 1, 2: 0.5}, "bad-threshold"),
])
def test_float_values_are_validation_errors(edges, tau, rule):
    assert _violated_rule(lambda: Instance(UNDIRECTED, (1, 2), edges, tau)) == rule


def test_non_int_vertex_id_is_reported_before_sorting():
    assert _violated_rule(lambda: Instance(UNDIRECTED, (2, "1"), (), {2: 0, "1": 0})) == "bad-vertex-id"


def test_vertices_are_stored_ascending():
    path = build_instance(UNDIRECTED, [3, 2, 1], [(1, 2), (2, 3)], 1)
    assert path.vertices == (1, 2, 3)
    assert path == build_instance(UNDIRECTED, [1, 2, 3], [(1, 2), (2, 3)], 1)
    assert exact_min_target_set(path).witness == {1}


def _outcome(solve, instance):
    """What `solve` returns on `instance`, or the type and text of what it raises."""
    try:
        return solve(instance)
    except (PreconditionError, ValueError, VerificationError) as exc:
        return type(exc), str(exc)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_listing_order_changes_nothing(seed):
    family = ("random", "degenerate", "tournament", "bidirected")[seed % 4]
    n = seed % 8 + 2
    spec = GenSpec(family="random" if family == "bidirected" else family, n=n, seed=seed,
                   weights="halves")
    inst = generate(spec)
    if family == "bidirected":
        inst = to_bidirected(inst).image
    order = list(inst.vertices)
    random.Random(seed).shuffle(order)
    relisted = Instance(inst.mode, tuple(order), inst.edges, dict(inst.tau))
    assert relisted == inst and hash(relisted) == hash(inst)
    for solve in (exact_min_target_set, exact_min_target_vector, exact_min_vertex_cover,
                  peel_ordering, classify_and_solve):
        assert _outcome(solve, relisted) == _outcome(solve, inst)
    vector = exact_min_target_vector(relisted).witness
    assert list(vector.items()) == list(exact_min_target_vector(inst).witness.items())


def test_thresholds_are_read_only():
    inst = triangle()
    with pytest.raises(TypeError):
        inst.tau[1] = 0
    assert inst.tau[1] == 1


def test_instances_pickle():
    inst = build_instance(UNDIRECTED, 3, [(1, 2, "1/2"), (2, 3)], [1, 2, "3/4"])
    again = pickle.loads(pickle.dumps(inst))
    assert again == inst and hash(again) == hash(inst)
    assert isinstance(again.tau, MappingProxyType)


def test_caller_dict_is_copied():
    tau = {1: Fraction(1), 2: Fraction(1)}
    inst = Instance(UNDIRECTED, (1, 2), ((1, 2, Fraction(1)),), tau)
    assert inst.compiled.tau == (1, 1)
    tau[1] = Fraction(5)
    del tau[2]
    assert dict(inst.tau) == {1: 1, 2: 1}
    assert inst.incident_totals == {1: 1, 2: 1}


# (mode, tails, heads, weight numerators, weight_den, threshold numerators, tau_den, scale)
_INTEGER_CASES = [
    (UNDIRECTED, [1, 3], [2, 2], [2, 6], 4, [4, 0, 2], 4, 2),  # every numerator even over 4
    (DIRECTED, [1, 2, 3], [2, 3, 1], [1, 3, 2], 2, [4, 2, 12], 8, 4),  # weights over 2, thresholds over 8
    (UNDIRECTED, [1, 2], [2, 3], [0, 0], 6, [0, 0, 0], 10, 1),  # every numerator 0
]


@pytest.mark.parametrize("mode, tails, heads, weights, weight_den, tau, tau_den, scale", _INTEGER_CASES)
def test_integer_constructor_matches_the_validating_one(mode, tails, heads, weights, weight_den,
                                                        tau, tau_den, scale):
    vertices = (1, 2, 3)
    got = Instance._from_ints(mode, vertices, tails, heads, weights, weight_den, tau, tau_den)
    edges = tuple((u, v, Fraction(k, weight_den)) for u, v, k in zip(tails, heads, weights))
    want = Instance(mode, vertices, edges, {v: Fraction(t, tau_den) for v, t in zip(vertices, tau)})
    assert got.compiled.scale == scale
    assert got.compiled == want.compiled
    assert got.edges == want.edges and dict(got.tau) == dict(want.tau)
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("vertices, weights, tau", [
    ((1, 2), [-2], [0, 3]),  # negative weight
    ((1, 2), [2], [0, -3]),  # negative threshold
    ((0, 2), [2], [0, 3]),  # vertex id 0
])
def test_integer_constructor_fails_as_the_validating_one(vertices, weights, tau):
    u, v = vertices
    with pytest.raises(ValidationError) as caught:
        Instance._from_ints(UNDIRECTED, vertices, [u], [v], weights, 4, tau, 9)
    with pytest.raises(ValidationError) as expected:
        Instance(UNDIRECTED, vertices, ((u, v, Fraction(weights[0], 4)),),
                 {x: Fraction(t, 9) for x, t in zip(vertices, tau)})
    assert caught.value.violation == expected.value.violation


def triangle(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], tau)


def test_min_edge_weight_examples():
    weighted = build_instance(UNDIRECTED, 3, [(1, 2, 3), (2, 3, 3), (1, 3, 1)], 1)
    assert min_edge_weight(weighted) == 1
    halves = build_instance(UNDIRECTED, 3, [(1, 2, "1/2"), (2, 3, "1/2")], 1)
    assert min_edge_weight(halves) == Fraction(1, 2)
    with pytest.raises(ValueError):
        min_edge_weight(build_instance(UNDIRECTED, 2, [], 1))


def test_min_edge_weight_of_complete_embedding_image():
    p3 = build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], 1)
    image = tss_to_complete(p3).image
    assert min_edge_weight(image) == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_handshake_identity(seed):
    inst = generate(GenSpec(n=seed % 8 + 1, seed=seed))
    total = sum(inst.incident_totals.values(), start=Fraction(0))
    assert total == 2 * inst.total_weight
