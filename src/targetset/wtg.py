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

import re
from fractions import Fraction

from .errors import WtgParseError
from .instance import (
    DIRECTED,
    UNDIRECTED,
    Instance,
    canonical_edges,
    format_rational,
    parse_rational,
)

_TOKEN = re.compile(r"\S+")


def _tokens(line: str):
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _int_token(tok, col, line_no, what):
    if not re.fullmatch(r"\d+", tok):
        raise WtgParseError(f"{what} must be a positive integer, got {tok!r}", line_no, col)
    return int(tok)


def _rational_token(tok, col, line_no, what) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError as exc:
        raise WtgParseError(f"bad {what}: {exc}", line_no, col) from None


def parse_wtg(text: str) -> tuple[Instance, dict[int, Fraction] | None]:
    """Parse a WTG document into a validated instance plus optional incentives."""
    mode = None
    declared_n = None
    version_seen = False
    tau: dict[int, Fraction] = {}
    edges: list[tuple[int, int, Fraction]] = []
    seen_pairs: set[tuple[int, int]] = set()
    incentives: dict[int, Fraction] = {}
    has_incentives = False
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        toks = _tokens(raw.split("#", 1)[0])
        if not toks:
            continue
        key, key_col = toks[0]
        args = toks[1:]

        if not version_seen:
            if key != "wtg":
                raise WtgParseError(f"expected 'wtg 1' header, got {key!r}", line_no, key_col)
            if len(args) != 1 or args[0][0] != "1":
                raise WtgParseError("unsupported format version", line_no, key_col)
            version_seen = True
            continue

        if key == "mode":
            if len(args) != 1 or args[0][0] not in (UNDIRECTED, DIRECTED):
                raise WtgParseError("mode must be 'undirected' or 'directed'", line_no, key_col)
            if mode is not None:
                raise WtgParseError("duplicate mode line", line_no, key_col)
            mode = args[0][0]
        elif key == "n":
            if len(args) != 1:
                raise WtgParseError("n takes one argument", line_no, key_col)
            if declared_n is not None:
                raise WtgParseError("duplicate n line", line_no, key_col)
            declared_n = _int_token(args[0][0], args[0][1], line_no, "vertex count")
        elif key in ("v", "e", "p") and (mode is None or declared_n is None):
            raise WtgParseError("mode and n must come before vertex/edge lines", line_no, key_col)
        elif key == "v":
            if len(args) != 2:
                raise WtgParseError("v takes an id and a threshold", line_no, key_col)
            vid = _int_token(args[0][0], args[0][1], line_no, "vertex id")
            if vid in tau:
                raise WtgParseError(f"vertex {vid} declared twice", line_no, args[0][1])
            tau[vid] = _rational_token(args[1][0], args[1][1], line_no, "threshold")
        elif key == "e":
            if len(args) != 3:
                raise WtgParseError("e takes two endpoints and a weight", line_no, key_col)
            u = _int_token(args[0][0], args[0][1], line_no, "endpoint")
            v = _int_token(args[1][0], args[1][1], line_no, "endpoint")
            w = _rational_token(args[2][0], args[2][1], line_no, "weight")
            if u == v:
                raise WtgParseError(f"self-loop at vertex {u}", line_no, args[1][1])
            for x, col in ((u, args[0][1]), (v, args[1][1])):
                if x not in tau:
                    raise WtgParseError(f"edge references undeclared vertex {x}", line_no, col)
            pair = (u, v) if mode == DIRECTED else (min(u, v), max(u, v))
            if pair in seen_pairs:
                raise WtgParseError(f"duplicate edge between {u} and {v}", line_no, key_col)
            seen_pairs.add(pair)
            edges.append((u, v, w))
        elif key == "p":
            if len(args) != 2:
                raise WtgParseError("p takes an id and a value", line_no, key_col)
            vid = _int_token(args[0][0], args[0][1], line_no, "vertex id")
            if vid not in tau:
                raise WtgParseError(f"incentive for undeclared vertex {vid}", line_no, args[0][1])
            if vid in incentives:
                raise WtgParseError(f"duplicate incentive for vertex {vid}", line_no, args[0][1])
            value = _rational_token(args[1][0], args[1][1], line_no, "incentive")
            if value < 0:
                raise WtgParseError(f"negative incentive {value}", line_no, args[1][1])
            incentives[vid] = value
            has_incentives = True
        else:
            raise WtgParseError(f"unknown directive {key!r}", line_no, key_col)

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

    return Instance(mode, tuple(sorted(tau)), tuple(edges), tau), (incentives if has_incentives else None)


def serialize_wtg(instance: Instance, incentives: dict[int, Fraction] | None = None) -> str:
    """Write the canonical WTG form; parse(serialize(x)) reproduces x exactly."""
    lines = ["wtg 1", f"mode {instance.mode}", f"n {instance.n}"]
    for v in sorted(instance.vertices):
        lines.append(f"v {v} {format_rational(instance.tau[v])}")
    for u, v, w in canonical_edges(instance):
        lines.append(f"e {u} {v} {format_rational(w)}")
    if incentives is not None:
        for v in sorted(instance.vertices):
            lines.append(f"p {v} {format_rational(incentives.get(v, Fraction(0)))}")
    return "\n".join(lines) + "\n"
