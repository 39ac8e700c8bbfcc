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

`parse_wtg` has two paths. A document in the layout `serialize_wtg` writes
(single spaces, `\n` line ends, no comment or blank line; `v` lines, then
`e` lines, then `p` lines, in any order within each block) is checked by
regexes and read in bulk, with every check on whole lists and sets. Any
other document, and any document that fails a check, goes to the line
parser, which alone raises `WtgParseError`: a message, its line and its
column never depend on the path. Both paths end in one tail, which hands the
endpoints as vertex positions, the number tokens and each distinct token's
reduced (numerator, denominator) pair to the constructor that puts them on
the instance's integer scale. Only incentives become Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import eq

from .errors import WtgParseError
from .instance import (
    DIRECTED,
    UNDIRECTED,
    Instance,
    canonical_edges,
    _check_incentives,
    _fraction,
    _rational_pair,
    format_rational,
)

_TOKEN = re.compile(r"\S+")
# `serialize_wtg`'s layout: this header, then `v`, `e` and `p` lines, single-spaced, with ASCII
# ids (`v` ids without a leading zero, so `str` gives each back) and `\n` line ends. Each line is
# matched on its own: a regex repeating a group over every line would keep a backtracking frame
# per line until the match ends, tens of bytes per byte.
_HEADER = re.compile(r"wtg 1\nmode (undirected|directed)\nn ([0-9]+)\n")
_V_LINE = re.compile(r"v [1-9][0-9]* \S+\n")
_E_LINE = re.compile(r"e [0-9]+ [0-9]+ \S+\n")
_P_LINE = re.compile(r"p [0-9]+ \S+\n")


def _column(line: str, k: int) -> int:
    """1-based column of token k of `line`; only error paths need it."""
    return [match.start() for match in _TOKEN.finditer(line)][k] + 1


def _int_token(toks, k, line, line_no, what) -> int:
    tok = toks[k]
    if not tok.isdecimal():
        raise WtgParseError(f"{what} must be a positive integer, got {tok!r}", line_no, _column(line, k))
    try:
        return int(tok)
    except ValueError:  # more digits than the interpreter converts
        raise WtgParseError(f"{what} of {len(tok)} digits is too long", line_no, _column(line, k)) from None


def _number_token(toks, k, line, line_no, what, numbers) -> tuple[int, int]:
    """Token k as a reduced (numerator, denominator) pair, parsed once: `numbers` keeps each."""
    tok = toks[k]
    value = numbers.get(tok)
    if value is None:
        try:
            value = _rational_pair(tok)
        except ValueError as exc:
            raise WtgParseError(f"bad {what}: {exc}", line_no, _column(line, k)) from None
        numbers[tok] = value
    return value


def parse_wtg(text: str) -> tuple[Instance, dict[int, Fraction] | None]:
    """Parse a WTG document into a validated instance plus optional incentives.

    A document in `serialize_wtg`'s layout that passes every check is read in
    bulk (`_parse_bulk`); every other document goes through the line parser
    (`_parse_lines`), which raises the first error with its line and column.
    Both parse each distinct number once, and keep incentives off the scale.
    """
    return _parse_bulk(text) or _parse_lines(text)


def _parse_bulk(text: str) -> tuple[Instance, dict[int, Fraction] | None] | None:
    """The parse of a document in `serialize_wtg`'s layout that passes every check, else None.

    Regexes check the layout; the tokens are stride slices of each block's
    `str.split()`, and every check runs on whole lists, sets and maps. Each id
    token becomes a position through one map from the `v` lines' id tokens.
    """
    if "#" in text or "\r" in text:
        return None
    header = _HEADER.match(text)
    if header is None:
        return None
    mode = header.group(1)
    # A block ends where the first line of a later block starts, so a line out of order sits in a
    # block whose line pattern it fails.
    start = header.end()
    p_at = text.find("\np ", start - 1) + 1 or len(text)
    e_at = text.find("\ne ", start - 1, p_at) + 1 or p_at
    try:
        declared_n = int(header.group(2))
        (ids,), tau_tokens = _columns(text[start:e_at], _V_LINE, 3)
        tau = dict(zip(ids, tau_tokens))
        # The vertex count and duplicate ids fail before the edge block, most of a file, is split.
        if not 1 <= declared_n == len(ids) == len(tau):
            return None
        vertices = sorted(map(int, ids))
        at = dict(zip(map(str, vertices), range(declared_n))).__getitem__
        (tails, heads), weight_tokens = _columns(text[e_at:p_at], _E_LINE, 4)
        (pids,), incentive_tokens = _columns(text[p_at:], _P_LINE, 3)
        tails, heads, pids = [list(map(at, column)) for column in (tails, heads, pids)]
        numbers = {t: _rational_pair(t) for t in {*tau_tokens, *weight_tokens}}
        paid = {t: _rational_pair(t) for t in set(incentive_tokens)}
    except (ValueError, KeyError):  # a line out of layout, an undeclared id, a malformed number or an over-long id
        return None
    pairs = set(zip(tails, heads))
    if (any(map(eq, tails, heads)) or len(pairs) != len(tails)
            or (mode == UNDIRECTED and not pairs.isdisjoint(zip(heads, tails)))
            or len(set(pids)) != len(pids) or any(num < 0 for num, _ in paid.values())):
        return None
    incentives = {vertices[i]: _fraction(*paid[t]) for i, t in zip(pids, incentive_tokens)}
    del ids, pids, pairs  # before the view is built
    return (Instance._from_values(mode, tuple(vertices), tails, heads, weight_tokens,
                                  list(map(tau.__getitem__, map(str, vertices))), numbers), incentives or None)


def _columns(block: str, line: re.Pattern, width: int) -> tuple[list[list[str]], list[str]]:
    """The id columns and the number tokens of a block of `width`-token lines.

    Raises ValueError when a line of the block does not match `line`. The
    block's token list lives only for this call.
    """
    if line.sub("", block):
        raise ValueError("a line out of layout")
    toks = block.split()
    return [toks[k::width] for k in range(1, width - 1)], toks[width - 1::width]


def _parse_lines(text: str) -> tuple[Instance, dict[int, Fraction] | None]:
    """The line parser: any layout, comments and blank lines; raises on the first error.

    Tokens are split on whitespace; a token's column is worked out only when
    an error names it.
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
    numbers: dict[str, tuple[int, int]] = {}  # threshold and weight tokens, the scale's values
    paid: dict[str, tuple[int, int]] = {}  # incentive tokens
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
            try:
                u = int(a) if a.isdecimal() else _int_token(toks, 1, line, line_no, "endpoint")
                v = int(b) if b.isdecimal() else _int_token(toks, 2, line, line_no, "endpoint")
            except ValueError:  # an endpoint too long to convert: report it with its position
                u = _int_token(toks, 1, line, line_no, "endpoint")
                v = _int_token(toks, 2, line, line_no, "endpoint")
            if wt not in numbers:
                _number_token(toks, 3, line, line_no, "weight", numbers)
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
            _number_token(toks, 2, line, line_no, "threshold", numbers)
            tau[vid] = toks[2]
        elif key == "p":
            if nargs != 2:
                raise WtgParseError("p takes an id and a value", line_no, _column(line, 0))
            vid = _int_token(toks, 1, line, line_no, "vertex id")
            if vid not in tau:
                raise WtgParseError(f"incentive for undeclared vertex {vid}", line_no, _column(line, 1))
            if vid in incentives:
                raise WtgParseError(f"duplicate incentive for vertex {vid}", line_no, _column(line, 1))
            value = _fraction(*_number_token(toks, 2, line, line_no, "incentive", paid))
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

    vertices = tuple(sorted(tau))
    at = dict(zip(vertices, range(declared_n))).__getitem__
    return (Instance._from_values(mode, vertices, list(map(at, tails)), list(map(at, heads)), weight_tokens,
                                  list(map(tau.__getitem__, vertices)), numbers), incentives or None)


def serialize_wtg(instance: Instance, incentives: dict[int, Fraction] | None = None) -> str:
    """Write the canonical WTG form.

    parse(serialize(x)) keeps x's mode, vertices, thresholds and edge set and
    serializes to the same bytes, but lists the edges in canonical order.
    Incentives that `parse_wtg` would refuse raise as in `_check_incentives`.
    """
    lines = ["wtg 1", f"mode {instance.mode}", f"n {instance.n}"]
    for v in instance.vertices:
        lines.append(f"v {v} {format_rational(instance.tau[v])}")
    for u, v, w in canonical_edges(instance):
        lines.append(f"e {u} {v} {format_rational(w)}")
    if incentives is not None:
        _check_incentives(instance, incentives)
        for v in instance.vertices:
            lines.append(f"p {v} {format_rational(incentives.get(v, Fraction(0)))}")
    return "\n".join(lines) + "\n"
