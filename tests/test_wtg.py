"""WTG format: parsing, canonical serialization, and addressed errors."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    GenSpec,
    UNDIRECTED,
    ValidationError,
    WtgParseError,
    build_instance,
    degenerate_to_complete,
    generate,
    parse_wtg,
    serialize_wtg,
    to_bidirected,
)

FIXTURE_NAMES = [
    "p3.wtg",
    "triangle_t2.wtg",
    "k3_weighted.wtg",
    "halves.wtg",
    "directed_pair.wtg",
    "p3_incentives.wtg",
]


def test_parse_p3_fixture(fixtures):
    instance, incentives = parse_wtg((fixtures / "p3.wtg").read_text())
    assert instance == build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], 1)
    assert incentives is None


def test_parse_incentive_lines(fixtures):
    instance, incentives = parse_wtg((fixtures / "p3_incentives.wtg").read_text())
    assert incentives == {1: Fraction(1), 2: Fraction(0), 3: Fraction(0)}


def test_parse_preserves_exact_rationals(fixtures):
    instance, _ = parse_wtg((fixtures / "halves.wtg").read_text())
    assert instance.tau[1] == Fraction(1, 2)
    weights = {(u, v): w for u, v, w in instance.edges}
    assert weights[(2, 4)] == Fraction(5, 2)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_is_identity_on_canonical_files(fixtures, name):
    text = (fixtures / name).read_text()
    instance, incentives = parse_wtg(text)
    assert serialize_wtg(instance, incentives) == text


def test_comments_and_blank_lines_are_ignored(fixtures):
    text = "# generated\n\nwtg 1\nmode undirected  # inline\nn 1\nv 1 0\n"
    instance, _ = parse_wtg(text)
    assert instance.n == 1


def _parse_error(text):
    with pytest.raises(WtgParseError) as info:
        parse_wtg(text)
    return info.value


def test_self_loop_is_a_parse_error():
    err = _parse_error("wtg 1\nmode undirected\nn 1\nv 1 1\ne 1 1 1\n")
    assert err.line == 5 and "self-loop" in str(err)


def test_zero_denominator_is_addressed():
    err = _parse_error("wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 1\ne 1 2 3/0\n")
    assert err.line == 6 and err.column == 7


def test_decimal_numbers_rejected():
    err = _parse_error("wtg 1\nmode undirected\nn 1\nv 1 1.5\n")
    assert err.line == 4


def test_header_required_first():
    assert "wtg 1" in str(_parse_error("mode undirected\n"))
    assert "version" in str(_parse_error("wtg 2\n"))
    assert "mode" in str(_parse_error("wtg 1\nn 1\nv 1 0\n"))


def test_duplicate_and_unknown_entities():
    base = "wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 1\n"
    assert "declared twice" in str(_parse_error(base + "v 2 1\n"))
    assert "duplicate edge" in str(_parse_error(base + "e 1 2 1\ne 2 1 1\n"))
    assert "undeclared vertex" in str(_parse_error(base + "e 1 3 1\n"))
    assert "undeclared vertex" in str(_parse_error(base + "p 3 1\n"))
    assert "vertex lines" in str(_parse_error("wtg 1\nmode undirected\nn 3\nv 1 1\nv 2 1\n"))


def test_negative_weight_fails_validation_not_parsing():
    with pytest.raises(ValidationError):
        parse_wtg("wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 1\ne 1 2 -1/2\n")


def test_negative_incentive_rejected():
    err = _parse_error("wtg 1\nmode undirected\nn 1\nv 1 1\np 1 -1\n")
    assert "negative incentive" in str(err)


@pytest.mark.parametrize("incentives, error, message", [
    ({1: 0.5}, TypeError, "incentive 0.5 at vertex 1 is a float, expected an int or Fraction"),
    ({1: -1}, ValueError, "negative incentive -1 at vertex 1"),
    ({9: 1}, ValueError, "incentive given for unknown vertex 9"),
    ({True: Fraction(1, 2)}, TypeError, "vertex id True is a bool, expected an int"),
], ids=["float", "negative", "unknown-vertex", "bool-id"])
def test_serialize_refuses_incentives_the_parser_refuses(incentives, error, message):
    # These used to be written as `p` lines the parser rejects, dropped, or written for vertex 1.
    p3 = build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], 1)
    with pytest.raises(error) as got:
        serialize_wtg(p3, incentives)
    assert str(got.value) == message


def test_serialized_incentives_round_trip():
    p3 = build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], 1)
    text = serialize_wtg(p3, {3: 2, 1: Fraction(1, 2)})
    parsed, incentives = parse_wtg(text)
    assert parsed == p3
    assert incentives == {1: Fraction(1, 2), 2: 0, 3: 2} and list(incentives) == [1, 2, 3]
    assert serialize_wtg(parsed, incentives) == text


_LONG = "7" * 5000  # more digits than CPython converts by default (4300)


@pytest.mark.parametrize("text, line, column, message", [
    (f"wtg 1\nmode undirected\nn {_LONG}\nv 1 1\n", 3, 3, "vertex count of 5000 digits is too long"),
    (f"wtg 1\nmode undirected\nn 1\nv {_LONG} 1\n", 4, 3, "vertex id of 5000 digits is too long"),
    (f"wtg 1\nmode undirected\nn 1\nv 1 1 # x\ne 1  {_LONG} 1\n", 5, 6, "endpoint of 5000 digits is too long"),
    (f"wtg 1\nmode undirected\nn 1\nv 1 1\ne 1 {_LONG} 1\n", 5, 5, "endpoint of 5000 digits is too long"),
    (f"wtg 1\nmode undirected\nn 1\nv 1 1\np {_LONG} 1\n", 5, 3, "vertex id of 5000 digits is too long"),
    (f"wtg 1\nmode undirected\nn 1\nv 1 {_LONG}\n", 4, 5, "bad threshold: integer of 5000 digits is too long"),
    (f"wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 1\ne 1 2 1/{_LONG}\n", 6, 7,
     "bad weight: integer of 5000 digits is too long"),
], ids=["count", "vertex-id", "endpoint", "endpoint-in-layout", "incentive-id", "threshold", "weight"])
def test_overlong_integers_are_addressed(text, line, column, message):
    err = _parse_error(text)
    assert (err.line, err.column) == (line, column)
    assert str(err) == f"line {line}, col {column}: {message}"


def _wide_denominator_document(n: int, seed: int = 0) -> str:
    """n vertices and 4n random edges, every value k/q with k <= 50 and q drawn from 1..10**5."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < 4 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        pairs.add((min(u, v), max(u, v)))
    lines = ["wtg 1", "mode undirected", f"n {n}"]
    lines += [f"v {v} {rng.randint(0, 50)}/{rng.randint(1, 10**5)}" for v in range(1, n + 1)]
    lines += [f"e {u} {v} {rng.randint(0, 50)}/{rng.randint(1, 10**5)}" for u, v in sorted(pairs)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("comment", ["", "# read by the line parser\n"], ids=["bulk", "lines"])
def test_wide_denominators_parse_within_budget(comment):
    # n=2000: a scale of about 35,000 bits. Each distinct token is reduced on its own small
    # integers, so the parse takes about 0.35 s (Python 3.11, 2 cores); one gcd running over
    # every scaled numerator took over 5 s.
    text = comment + _wide_denominator_document(2000)
    start = time.perf_counter()
    inst, _ = parse_wtg(text)
    elapsed = time.perf_counter() - start
    scale = math.lcm(*(x.denominator for x in (*inst.tau.values(), *(w for _, _, w in inst.edges))))
    assert inst.compiled.scale == scale and scale.bit_length() > 30_000
    assert elapsed < 2.0, f"parse took {elapsed:.2f} s"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_serialize_parse_round_trip_random(seed):
    # Tournaments and the two reduction images do not store edges canonically.
    family = ("random", "degenerate", "tournament", "bidirected", "hub")[seed % 5]
    n = seed % 7 + (1 if family in ("random", "degenerate") else 2)
    if family == "hub":
        unit = GenSpec(family="degenerate", n=n, seed=seed, weights="unit", max_slack=0)
        inst = degenerate_to_complete(generate(unit)).image
    elif family == "bidirected":
        inst = to_bidirected(generate(GenSpec(n=n, seed=seed, weights="halves"))).image
    else:
        inst = generate(GenSpec(family=family, n=n, seed=seed, weights="halves"))
    text = serialize_wtg(inst)
    parsed, _ = parse_wtg(text)
    assert serialize_wtg(parsed) == text
    assert parsed == inst and hash(parsed) == hash(inst)
