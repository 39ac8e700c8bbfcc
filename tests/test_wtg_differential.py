"""The split-based WTG parser against the regex parser it replaced.

`_parse_wtg` and its helpers below are the former regex implementation of
`parse_wtg`, kept verbatim (renamed with a leading underscore) as the
reference: a model of the definitions cannot state the parser's error
messages with their line and column. Hypothesis mutates valid documents token by token and line by
line, and every document must give the same instance and incentives, or
the same error with the same message, line and column. Some documents keep
`serialize_wtg`'s layout, so that mutations reach the bulk path, which must
return nothing or exactly what the line parser returns.
"""

import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    Instance,
    ValidationError,
    WtgParseError,
    build_instance,
    parse_rational,
    parse_wtg,
    serialize_wtg,
)
from targetset.wtg import _parse_bulk, _parse_lines

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


def _parse_wtg(text: str) -> tuple[Instance, dict[int, Fraction] | None]:
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


# Separators include a tab and Unicode spaces (no-break, em, ideographic),
# which `str.split()` and the regex `\S+` must both treat as whitespace.
_SEPARATORS = [" ", "  ", "\t", " \t ", "\u00a0", "\u2003", "\u3000"]
# Arabic-indic and fullwidth digits are decimal digits; a superscript one is
# a digit but not a decimal, so neither parser may take it as a number.
_GARBAGE = [
    "x", "+3", "-3", "1/0", "0/0", "1.5", "3/2", "-1/2", "+1/2", "1/2/3", "1e3",
    "\u0663", "\uff13", "\u0663/\u0664", "\u00b9", "0", "7", "99",
    "wtg", "mode", "n", "v", "e", "p", "directed", "undirected", "#", "#x",
]
_numbers = st.builds(
    lambda num, den: str(num) if den == 1 else f"{num}/{den}",
    st.integers(0, 9),
    st.sampled_from([1, 2, 7, 11]),
)


@st.composite
def _documents(draw):
    """A valid WTG document as a list of token lists, one per line."""
    mode = draw(st.sampled_from([UNDIRECTED, DIRECTED]))
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
    lines = [["wtg", "1"], ["mode", mode], ["n", str(len(ids))]]
    lines += [["v", str(v), draw(_numbers)] for v in ids]
    pairs = [(u, v) for u in ids for v in ids if u != v]
    if mode == UNDIRECTED:
        pairs = [(u, v) for u, v in pairs if u < v]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
        lines += [["e", str(u), str(v), draw(_numbers)] for u, v in chosen]
    if draw(st.booleans()):
        lines += [["p", str(v), draw(_numbers)] for v in ids]
    return lines


@st.composite
def _mutated(draw):
    lines = draw(_documents())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        kind = draw(st.sampled_from(
            ["drop-token", "dup-token", "add-token", "swap-token", "copy-token", "drop-line", "dup-line",
             "dup-reversed", "add-line"]
        ))
        k = draw(st.integers(0, max(len(toks) - 1, 0)))
        if kind == "drop-token" and toks:
            del toks[k]
        elif kind == "dup-token" and toks:
            toks.insert(k, toks[k])
        elif kind == "add-token":
            toks.insert(k, draw(st.sampled_from(_GARBAGE)))
        elif kind == "swap-token" and toks:
            toks[k] = draw(st.sampled_from(_GARBAGE))
        elif kind == "copy-token" and toks:  # a token of this or another line: self-loops, repeated ids
            source = toks if draw(st.booleans()) else draw(st.sampled_from(lines))
            toks[k] = draw(st.sampled_from(source or toks))
        elif kind == "drop-line":
            del lines[i]
        elif kind == "dup-line":
            lines.insert(i, list(toks))
        elif kind == "dup-reversed" and len(toks) > 2:  # an edge both ways
            lines.insert(i, [toks[0], toks[2], toks[1], *toks[3:]])
        elif kind == "add-line":
            lines.insert(i, draw(st.lists(st.sampled_from(_GARBAGE), max_size=3)))
        if not lines:
            lines = [[]]
    if draw(st.booleans()):  # `serialize_wtg`'s layout
        return "".join(" ".join(toks) + "\n" for toks in lines)
    text = []
    for toks in lines:
        lead = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
        sep = draw(st.sampled_from(_SEPARATORS))
        comment = draw(st.sampled_from(["", "", " # note", "#", "\t#e 1 2 3"]))
        text.append(lead + sep.join(toks) + comment)
    return "\n".join(text) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, text):
    try:
        instance, incentives = parse(text)
    except WtgParseError as exc:
        return ("parse-error", str(exc), exc.line, exc.column)
    except ValidationError as exc:
        return ("invalid", str(exc))
    return ("ok", instance, incentives)


@given(_mutated())
@settings(max_examples=600, deadline=None)
def test_parser_matches_reference(text):
    assert _outcome(parse_wtg, text) == _outcome(_parse_wtg, text)


_BASE = "wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 1/2\n"
_INTEGER_WEIGHTS = "wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 2\ne 1 2 3\n"


# Each case is one the mutations above reach only rarely.
_RARE_CASES = [
    _BASE + "e 1 2 1/0\n",
    _BASE + "e 1 2 +3\n",
    _BASE + "e 1\t3 1\n",
    _BASE + "e 1 2 -1\n",
    _BASE + "e 2 2 1\n",
    _BASE + "e 1 2 1\ne 2 1 1\n",
    _BASE + "e ١ ٢ ٣/٤\n",
    _BASE + "e 1 2 ¹\n",
    _BASE + "e ¹ 2 1\n",
    _BASE + "p 1 -1/2\n",
    _BASE + "p 1 1\np　1　2\n",
    "wtg 1\nmode undirected\nn 3\nv 1 1\nv 2 1/2\n",
    "wtg 1\nmode directed\nn ２\nv 1 0\nv 2 0\ne 1 2 1\ne 2 1 1\n",
    "wtg 1\nmode undirected\nn 2\nv 0 1\nv 1 1\ne 0 1 1\n",
    "wtg 1\nmode undirected\nn 1\nv 1 -1\n",
    "wtg 1\nmode directed\nn 2\nv 1 -1\nv 2 1\ne 2 1 3\ne 1 2 -1/2\n",
    _BASE + "e 1 2 2/4\n",
    _INTEGER_WEIGHTS + "p 1 1/3\n",
    _BASE + "e 1 2 1_0\n",
    _BASE + "e 1 2 ٣/٤\n",
    _BASE + "p 1 -0/5\n",
    # In `serialize_wtg`'s layout, so the bulk path sees them first.
    _BASE + "e 1 2 1\ne 2 1 1/2\n",
    "wtg 1\nmode directed\nn 2\nv 1 0\nv 2 0\ne 2 2 1\n",
    "wtg 1\nmode directed\nn 2\nv 1 0\nv 2 0\ne 1 2 1\ne 2 1 1/2\n",
    "wtg 1\nmode directed\nn 2\nv 1 0\nv 2 0\ne 1 2 1\ne 1 2 1/2\n",
    _BASE + "v 01 1\n",
    _BASE + "e 1 3 1\n",
    _BASE + "p 3 1\n",
    _BASE + "p 2 1\np 1 1/2\np 2 1\n",
    _BASE + "e 1 2 1\np 2 0\np 1 1/2\n",
    "wtg 1\nmode undirected\nn 0\n",
    "wtg 1\nmode undirected\nn 02\nv 2 1\nv 1 2/4\ne 02 1 6/4\n",
]
# In `serialize_wtg`'s layout, yet each one goes to the line parser: the bulk reader maps every
# endpoint and incentive id token through the `v` lines' id tokens, and checks pairs of positions.
_BULK_FALLBACKS = [
    "wtg 1\nmode undirected\nn 2\nv 01 1\nv 2 1/2\ne 01 2 3/2\n",  # `v 01`: vertex 1
    "wtg 1\nmode undirected\nn 2\nv 01 1\nv 1 1/2\n",
    "wtg 1\nmode undirected\nn 2\nv 1 1\nv 2 1/2\ne 01 2 3/2\n",
    "wtg 1\nmode directed\nn 2\nv 0 1\nv 2 1\ne 2 0 1\n",  # id 0
    "wtg 1\nmode undirected\nn 2\nv 1 1\nv 0 1\n",
    _BASE + "e 2 5 1\n",  # an undeclared endpoint
    "wtg 1\nmode undirected\nn 3\nv 3 0\nv 1 0\nv 2 0\ne 3 1 1\ne 1 2 1\ne 1 3 1/2\n",  # reversed pair
    "wtg 1\nmode directed\nn 3\nv 5 0\nv 7 0\nv 9 1\ne 9 5 1\ne 5 9 1\ne 9 5 2\n",  # repeated arc
    _BASE + "e 1 2 1\np 01 1\n",  # incentives for unknown ids
    _BASE + "p 2 0\np 0 1\n",
    _BASE + "p 1 1\np 2 1/2\np 1 1\n",  # a repeated id
]
_RARE_CASES += _BULK_FALLBACKS


@pytest.mark.parametrize("text", _RARE_CASES)
def test_rare_cases_match_reference(text):
    assert _outcome(parse_wtg, text) == _outcome(_parse_wtg, text)


def _fields(view):
    return view.scale, view.position, view.tau, view.incoming, view.out


def _assert_view_matches_constructor(text):
    """The integer view the parser builds equals the one the constructor builds."""
    try:
        inst, _ = parse_wtg(text)
    except (WtgParseError, ValidationError):
        return
    rebuilt = Instance(inst.mode, inst.vertices, inst.edges, dict(inst.tau))
    view = inst.compiled
    assert _fields(view) == _fields(rebuilt.compiled)
    assert (view.incoming is view.out) == (inst.mode == UNDIRECTED)
    assert hash(inst) == hash(rebuilt)
    assert _fields(pickle.loads(pickle.dumps(inst)).compiled) == _fields(view)


@given(_mutated())
@settings(max_examples=300, deadline=None)
def test_parser_view_matches_constructor_view(text):
    _assert_view_matches_constructor(text)


@pytest.mark.parametrize("text", _RARE_CASES)
def test_rare_cases_view_matches_constructor_view(text):
    _assert_view_matches_constructor(text)


def _full_outcome(parse, text):
    """`_outcome`, with the integer view of a parsed instance."""
    outcome = _outcome(parse, text)
    return outcome + (_fields(outcome[1].compiled),) if outcome[0] == "ok" else outcome


def _assert_bulk_matches_lines(text):
    """The bulk path returns nothing, or what the line parser returns, view included.

    Returns whether the bulk path read the text."""
    try:
        if _parse_bulk(text) is None:
            return False
    except ValidationError:
        pass
    assert _full_outcome(_parse_bulk, text) == _full_outcome(_parse_lines, text)
    return True


@given(_mutated())
@settings(max_examples=600, deadline=None)
def test_bulk_path_matches_line_parser(text):
    _assert_bulk_matches_lines(text)


@pytest.mark.parametrize("text", _RARE_CASES)
def test_rare_cases_bulk_path_matches_line_parser(text):
    _assert_bulk_matches_lines(text)


@pytest.mark.parametrize("text", _BULK_FALLBACKS)
def test_bulk_fallbacks_take_the_line_parsers_outcome(text):
    assert _parse_bulk(text) is None
    assert _full_outcome(parse_wtg, text) == _full_outcome(_parse_lines, text)


@st.composite
def _serializable(draw):
    """An instance with gaps between its ids and fractional values, and maybe incentives."""
    mode = draw(st.sampled_from([UNDIRECTED, DIRECTED]))
    ids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8, unique=True))
    pairs = [(u, v) for u in ids for v in ids if u != v and (mode == DIRECTED or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    number = st.fractions(min_value=0, max_value=20, max_denominator=12)
    edges = [(u, v, draw(number)) for u, v in chosen]
    inst = build_instance(mode, ids, edges, {v: draw(number) for v in ids})
    incentives = {v: draw(number) for v in ids} if draw(st.booleans()) else None
    return inst, incentives


@given(_serializable())
@settings(max_examples=300, deadline=None)
def test_serialized_documents_take_the_bulk_path(drawn):
    inst, incentives = drawn
    text = serialize_wtg(inst, incentives)
    assert _assert_bulk_matches_lines(text)
    assert _parse_bulk(text) == (inst, incentives)
    # A comment or CRLF line ends send the document to the line parser, with the same result.
    for variant in ("# c\n" + text, text.replace("\n", "\r\n")):
        assert _parse_bulk(variant) is None
        assert _full_outcome(parse_wtg, variant) == _full_outcome(_parse_bulk, text)


def test_incentives_do_not_enter_the_scale():
    inst, incentives = parse_wtg(_INTEGER_WEIGHTS + "p 1 1/3\n")
    assert incentives == {1: Fraction(1, 3)}
    assert inst.compiled.scale == 1


def test_split_and_isdecimal_match_the_regex_classes_on_every_code_point():
    # The parser's speed rests on this: `str.split()` tokenizes exactly like
    # `\S+`, and `str.isdecimal()` accepts exactly what `\d` matches.
    every = "".join(map(chr, range(0x110000)))
    assert {c for c in every if not c.split()} == set(re.findall(r"\s", every))
    assert {c for c in every if c.isdecimal()} == set(re.findall(r"\d", every))
