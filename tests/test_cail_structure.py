"""Block-structure checks of the modeling language, made by ``build_graph``.

The oracle is the earlier parser with its separate structure walk, kept
verbatim: on any token stream ``parse_cail`` must raise the same exception
class, token position and message, or return the same tokens.
``build_graph`` must also reject broken scripts that did not come through
the parser.
"""
import re

import pytest
from hypothesis import given, settings, strategies as st

from cesel import assets
from cesel.cail import CailScript, Scmt, Token, TokenKind, build_graph, parse_cail
from cesel.errors import CeselError, StructureError, UnknownSymbol

SCMT = assets.bundled_scmt()


# --- oracle: the earlier parser and structure check, verbatim ---------------

_SYMBOL_RE = re.compile(r"^[A-Z]+\(\d+\)$")
_KEYWORDS = ("BEGIN", "END", "IF", "ELSE", "WHILE", "BREAK")


def oracle_parse_cail(source_text: str, scmt: Scmt, name: str = "script") -> CailScript:
    words: list[str] = []
    for raw in source_text.splitlines():
        words.extend(raw.split("#", 1)[0].split())
    if not words:
        raise StructureError(0, "empty script")

    tokens: list[Token] = []
    for pos, word in enumerate(words):
        upper = word.upper()
        if upper in _KEYWORDS:
            tokens.append(Token(TokenKind(upper), position=pos))
        elif _SYMBOL_RE.match(upper) and upper in scmt:
            tokens.append(Token(TokenKind.SYMBOL, symbol=upper, position=pos))
        else:
            raise UnknownSymbol(word, pos)

    _check_structure(tokens)
    return CailScript(name=name, tokens=tuple(tokens))


def _check_structure(tokens: list[Token]) -> None:
    if tokens[0].kind is not TokenKind.BEGIN:
        raise StructureError(0, "script must start with 'begin'")
    # stack holds "FRAME", "WHILE", "IF", "ELSE"
    stack: list[str] = ["FRAME"]
    closed = False
    for i, tok in enumerate(tokens[1:], start=1):
        if closed:
            raise StructureError(i, "tokens after the closing 'end'")
        kind = tok.kind
        if kind is TokenKind.BEGIN:
            raise StructureError(i, "'begin' is only allowed as the first token")
        elif kind is TokenKind.IF:
            stack.append("IF")
        elif kind is TokenKind.WHILE:
            stack.append("WHILE")
        elif kind is TokenKind.ELSE:
            if stack[-1] != "IF":
                raise StructureError(i, "'else' outside an open 'if'")
            stack[-1] = "ELSE"
        elif kind is TokenKind.BREAK:
            if "WHILE" not in stack:
                raise StructureError(i, "'break' outside a loop")
        elif kind is TokenKind.END:
            top = stack.pop()
            if top == "FRAME":
                closed = True
    if not closed:
        raise StructureError(len(tokens) - 1, "missing 'end' for an open block")


# --- random token streams -----------------------------------------------------

# all six keywords in mixed case, known symbols, and unknown words
WORDS = ["begin", "END", "If", "else", "while", "BREAK", "end",
         "M(1)", "r(1)", "F(2)", "Q(1)", "M(99)", "symbol", "#note\n"]

flat_streams = st.builds(
    lambda lead, body, ends: " ".join((["begin"] if lead else []) + body + ["end"] * ends),
    st.booleans(),
    st.lists(st.sampled_from(WORDS), max_size=14),
    st.integers(0, 3),
)

# nested blocks, so that many streams pass the structure check
blocks = st.recursive(
    st.sampled_from(["M(1)", "R(1)", "F(2)", "break", "else", ""]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(" ".join),
        inner.map(lambda b: f"while {b} end"),
        inner.map(lambda b: f"if {b} end"),
        st.tuples(inner, inner).map(lambda t: f"if {t[0]} else {t[1]} end"),
    ),
    max_leaves=10,
)
nested_streams = st.builds(
    lambda body, ends: f"begin {body} " + "end " * ends, blocks, st.integers(0, 2)
)


def outcome(parse, text):
    try:
        script = parse(text, SCMT)
    except CeselError as exc:
        return type(exc), getattr(exc, "position", None), str(exc)
    return [(t.kind, t.symbol, t.position) for t in script.tokens]


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(flat_streams, nested_streams))
def test_parse_cail_matches_earlier_structure_check(text):
    assert outcome(parse_cail, text) == outcome(oracle_parse_cail, text)


# --- scripts that did not come through the parser -----------------------------

B, E, I, EL, W, BR, S = (TokenKind.BEGIN, TokenKind.END, TokenKind.IF, TokenKind.ELSE,
                         TokenKind.WHILE, TokenKind.BREAK, TokenKind.SYMBOL)


@pytest.mark.parametrize("kinds, position, reason", [
    pytest.param((B, EL, E), 1, "'else' outside an open 'if'", id="else-at-top"),
    pytest.param((B, I, EL, EL, E, E), 3, "'else' outside an open 'if'", id="second-else"),
    pytest.param((B, BR, E), 1, "'break' outside a loop", id="break-outside-loop"),
    pytest.param((B, W, S, E), 3, "missing 'end' for an open block", id="missing-end"),
    pytest.param((B, E, S), 2, "tokens after the closing 'end'", id="after-final-end"),
    pytest.param((S, E), 0, "script must start with 'begin'", id="no-begin"),
    pytest.param((), 0, "empty script", id="empty"),
])
def test_build_graph_rejects_broken_hand_built_scripts(kinds, position, reason):
    tokens = tuple(Token(k, "M(1)" if k is S else None, i) for i, k in enumerate(kinds))
    with pytest.raises(StructureError) as info:
        build_graph(CailScript("X", tokens))
    assert (info.value.position, info.value.reason) == (position, reason)
