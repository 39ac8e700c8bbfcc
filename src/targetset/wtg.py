"""The WTG text format: a line-oriented, diff-friendly instance file.

Grammar (one directive per line, `#` starts a comment, blank lines ignored):

    wtg 1
    mode undirected|directed
    n <count>
    v <id> <threshold>
    e <u> <v> <weight>
    p <id> <value>         (optional incentive lines)

Numbers are `int` or `int/int`; decimals are rejected so rationals survive
round trips exactly. Canonical form lists vertices ascending, then edges
sorted with undirected endpoints written low id first, then incentives
ascending.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import WtgParseError
from .instance import (
    DIRECTED,
    UNDIRECTED,
    Instance,
    _ratio,
    canonical_edges,
    format_rational,
    parse_rational,
)

_TOKEN = re.compile(r"\S+")


def _column(line: str, k: int) -> int:
    """1-based column of token k of `line`; only error paths need it."""
    return [match.start() for match in _TOKEN.finditer(line)][k] + 1


def _int_token(toks, k, line, line_no, what) -> int:
    tok = toks[k]
    if not tok.isdecimal():
        raise WtgParseError(f"{what} must be a positive integer, got {tok!r}", line_no, _column(line, k))
    return int(tok)


def _number_token(toks, k, line, line_no, what, cache, parse):
    """Token k parsed by `parse`, once per distinct token: `cache` keeps each result."""
    tok = toks[k]
    value = cache.get(tok)
    if value is None:
        try:
            value = parse(tok)
        except ValueError as exc:
            raise WtgParseError(f"bad {what}: {exc}", line_no, _column(line, k)) from None
        cache[tok] = value
    return value


def parse_wtg(text: str) -> tuple[Instance, dict[int, Fraction] | None]:
    """Parse a WTG document into a validated instance plus optional incentives.

    Tokens are split on whitespace; a token's column is worked out only when
    an error names it. Each distinct number is parsed once per document:
    threshold and weight tokens into a numerator and a denominator, which are
    put on their common denominator once per distinct token and handed to the
    instance with the endpoints, so it is neither validated nor compiled a
    second time. Incentives stay Fractions and leave the integer view alone.
    """
    mode = None
    declared_n = None
    version_seen = False
    ready = False  # header, mode and n seen; edge lines, most of a file, then take the first branch
    tau: dict[int, str] = {}  # vertex id -> its threshold token
    tails: list[int] = []
    heads: list[int] = []
    weight_tokens: list[str] = []
    seen_pairs: set[tuple[int, int]] = set()
    incentives: dict[int, Fraction] = {}
    ratios: dict[str, tuple[int, int]] = {}
    incentive_numbers: dict[str, Fraction] = {}
    lines = text.splitlines()
    last_line = len(lines)

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        toks = line.split()
        if not toks:
            continue
        key = toks[0]
        nargs = len(toks) - 1

        if key == "e" and ready:
            if nargs != 3:
                raise WtgParseError("e takes two endpoints and a weight", line_no, _column(line, 0))
            _, a, b, wt = toks
            u = int(a) if a.isdecimal() else _int_token(toks, 1, line, line_no, "endpoint")
            v = int(b) if b.isdecimal() else _int_token(toks, 2, line, line_no, "endpoint")
            if wt not in ratios:
                _number_token(toks, 3, line, line_no, "weight", ratios, _ratio)
            if u == v:
                raise WtgParseError(f"self-loop at vertex {u}", line_no, _column(line, 2))
            if u not in tau or v not in tau:
                x, k = (u, 1) if u not in tau else (v, 2)
                raise WtgParseError(f"edge references undeclared vertex {x}", line_no, _column(line, k))
            seen_pairs.add((u, v) if mode == DIRECTED or u < v else (v, u))
            if len(seen_pairs) == len(tails):  # the pair was there already
                raise WtgParseError(f"duplicate edge between {u} and {v}", line_no, _column(line, 0))
            tails.append(u)
            heads.append(v)
            weight_tokens.append(wt)
            continue

        if not version_seen:
            if key != "wtg":
                raise WtgParseError(f"expected 'wtg 1' header, got {key!r}", line_no, _column(line, 0))
            if nargs != 1 or toks[1] != "1":
                raise WtgParseError("unsupported format version", line_no, _column(line, 0))
            version_seen = True
            continue

        if key == "mode":
            if nargs != 1 or toks[1] not in (UNDIRECTED, DIRECTED):
                raise WtgParseError("mode must be 'undirected' or 'directed'", line_no, _column(line, 0))
            if mode is not None:
                raise WtgParseError("duplicate mode line", line_no, _column(line, 0))
            mode = toks[1]
        elif key == "n":
            if nargs != 1:
                raise WtgParseError("n takes one argument", line_no, _column(line, 0))
            if declared_n is not None:
                raise WtgParseError("duplicate n line", line_no, _column(line, 0))
            declared_n = _int_token(toks, 1, line, line_no, "vertex count")
        elif key in ("v", "e", "p") and not ready:
            raise WtgParseError("mode and n must come before vertex/edge lines", line_no, _column(line, 0))
        elif key == "v":
            if nargs != 2:
                raise WtgParseError("v takes an id and a threshold", line_no, _column(line, 0))
            vid = _int_token(toks, 1, line, line_no, "vertex id")
            if vid in tau:
                raise WtgParseError(f"vertex {vid} declared twice", line_no, _column(line, 1))
            _number_token(toks, 2, line, line_no, "threshold", ratios, _ratio)
            tau[vid] = toks[2]
        elif key == "p":
            if nargs != 2:
                raise WtgParseError("p takes an id and a value", line_no, _column(line, 0))
            vid = _int_token(toks, 1, line, line_no, "vertex id")
            if vid not in tau:
                raise WtgParseError(f"incentive for undeclared vertex {vid}", line_no, _column(line, 1))
            if vid in incentives:
                raise WtgParseError(f"duplicate incentive for vertex {vid}", line_no, _column(line, 1))
            value = _number_token(toks, 2, line, line_no, "incentive", incentive_numbers, parse_rational)
            if value.numerator < 0:
                raise WtgParseError(f"negative incentive {value}", line_no, _column(line, 2))
            incentives[vid] = value
        else:
            raise WtgParseError(f"unknown directive {key!r}", line_no, _column(line, 0))
        ready = mode is not None and declared_n is not None

    if not version_seen:
        raise WtgParseError("empty document, expected 'wtg 1' header", max(last_line, 1))
    if mode is None:
        raise WtgParseError("missing mode line", last_line)
    if declared_n is None:
        raise WtgParseError("missing n line", last_line)
    if declared_n < 1:
        raise WtgParseError("n must be at least 1", last_line)
    if len(tau) != declared_n:
        raise WtgParseError(f"declared n {declared_n} but found {len(tau)} vertex lines", last_line)

    tokens = set(weight_tokens).union(tau.values())
    den = math.lcm(*(ratios[t][1] for t in tokens))
    ints = {t: ratios[t][0] * (den // ratios[t][1]) for t in tokens}
    vertices = tuple(sorted(tau))
    return Instance._from_ints(
        mode, vertices, tails, heads, list(map(ints.__getitem__, weight_tokens)), den,
        [ints[tau[v]] for v in vertices], den), incentives or None


def serialize_wtg(instance: Instance, incentives: dict[int, Fraction] | None = None) -> str:
    """Write the canonical WTG form.

    parse(serialize(x)) keeps x's mode, vertices, thresholds and edge set and
    serializes to the same bytes, but lists the edges in canonical order.
    """
    lines = ["wtg 1", f"mode {instance.mode}", f"n {instance.n}"]
    for v in instance.vertices:
        lines.append(f"v {v} {format_rational(instance.tau[v])}")
    for u, v, w in canonical_edges(instance):
        lines.append(f"e {u} {v} {format_rational(w)}")
    if incentives is not None:
        for v in instance.vertices:
            lines.append(f"p {v} {format_rational(incentives.get(v, Fraction(0)))}")
    return "\n".join(lines) + "\n"
