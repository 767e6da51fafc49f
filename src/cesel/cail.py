"""Modeling-language scripts, their control graphs, and cell arrays.

A script is a whitespace-separated token stream: the keywords ``begin``,
``end``, ``if``, ``else``, ``while``, ``break`` (case-insensitive) plus
symbol IDs such as ``R(1)`` or ``M(3)`` that must exist in a symbol table
(:class:`Scmt`). The script is converted to a directed graph whose nodes
are the control conjunctions (entry, loop headers, branch points, joins,
exit) and whose edges carry the symbols executed between two conjunctions.
The ordered list of non-empty edge labels, the :class:`GraphArray`, is
what downstream independency scoring consumes.

Everything in this module is immutable after construction and free of
shared state, so all functions are safe to call concurrently.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataFileError, EmptyGraph, StructureError, UnknownSymbol

_SYMBOL_RE = re.compile(r"^[A-Z]+\(\d+\)$")


class TokenKind(enum.Enum):
    BEGIN = "BEGIN"
    END = "END"
    IF = "IF"
    ELSE = "ELSE"
    WHILE = "WHILE"
    BREAK = "BREAK"
    SYMBOL = "SYMBOL"


_KEYWORDS = {kind.value: kind for kind in TokenKind if kind is not TokenKind.SYMBOL}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    symbol: str | None = None
    position: int = -1

    def __repr__(self):
        if self.kind is TokenKind.SYMBOL:
            return f"SYM {self.symbol}"
        return self.kind.value


@dataclass(frozen=True)
class Scmt:
    """Symbol table: maps IDs like ``R(1)`` to short descriptions.

    The letter prefix of an ID is its function group (by convention R for
    random, M for mathematical, F for functional/heuristic steps).
    """

    entries: dict[str, str]

    def __post_init__(self):
        for sym in self.entries:
            if not _SYMBOL_RE.match(sym):
                raise ValueError(f"malformed symbol ID {sym!r} in symbol table")

    @property
    def groups(self) -> set[str]:
        return {sym.split("(")[0] for sym in self.entries}

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.entries


def load_scmt(path: str | Path) -> Scmt:
    """Read a tab-separated (symbol, description) UTF-8 file; ``#`` starts a comment.

    A leading byte-order mark is dropped. A file that is not UTF-8 text,
    or has a line without a tab-separated description or a repeated or
    malformed symbol ID, raises :class:`DataFileError` naming ``path``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise DataFileError(f"{path}: line {lineno}: expected 'symbol<TAB>description'")
        sym = parts[0].strip().upper()
        if sym in entries:
            raise DataFileError(f"{path}: line {lineno}: duplicate symbol {sym!r}")
        entries[sym] = parts[1].strip()
    try:
        return Scmt(entries)
    except ValueError as exc:
        raise DataFileError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class CailScript:
    """A validated token sequence for one algorithm."""

    name: str
    tokens: tuple[Token, ...]


def parse_cail(source_text: str, scmt: Scmt, name: str = "script") -> CailScript:
    """Tokenize and structurally validate a script.

    Whitespace and newlines separate tokens; ``#`` comments run to end of
    line; keywords and symbol IDs are matched case-insensitively. Raises
    :class:`UnknownSymbol` for tokens absent from the table and, from
    :func:`build_graph`, :class:`StructureError` when the script breaks a
    block rule.
    """
    words: list[str] = []
    for raw in source_text.splitlines():
        words.extend(raw.split("#", 1)[0].split())

    tokens: list[Token] = []
    for pos, word in enumerate(words):
        upper = word.upper()
        if upper in _KEYWORDS:
            tokens.append(Token(_KEYWORDS[upper], position=pos))
        elif upper in scmt:  # the table holds only well-formed IDs
            tokens.append(Token(TokenKind.SYMBOL, symbol=upper, position=pos))
        else:
            raise UnknownSymbol(word, pos)

    script = CailScript(name=name, tokens=tuple(tokens))
    build_graph(script)
    return script


# --- graph construction -----------------------------------------------------

class NodeKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    LOOP = "loop"
    BRANCH = "branch"
    JOIN = "join"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    symbols: tuple[str, ...]
    first_pos: int | None  # token position of the first symbol, None if empty


@dataclass(frozen=True)
class IndependencyGraph:
    """Directed control graph with symbol lists on the edges."""

    name: str
    nodes: tuple[NodeKind, ...]
    edges: tuple[Edge, ...]

    @property
    def entry(self) -> int:
        return 0

    @property
    def exit(self) -> int:
        return len(self.nodes) - 1


@dataclass(frozen=True)
class GraphArray:
    """Ordered non-empty edge labels of a graph; the unit of comparison."""

    name: str
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if any(len(c) == 0 for c in self.cells):
            raise ValueError("graph array cells must be non-empty")

    def __len__(self) -> int:
        return len(self.cells)


@dataclass
class _Frame:
    kind: TokenKind                # WHILE or IF
    header: int                    # loop header / branch node
    join: int = -1                 # join node once 'else' is seen (IF only)
    breaks: list = field(default_factory=list)  # (src, symbols) per break


def build_graph(script: CailScript) -> IndependencyGraph:
    """Check a script's block structure and convert it into its control graph.

    The block rules, each checked in this one walk over the tokens; a
    violation raises :class:`StructureError` at the index of the token
    where it shows:

    - the script is not empty and starts with ``begin``, which appears
      nowhere else;
    - ``if`` and ``while`` open a block, ``end`` closes the innermost open
      block, and the ``end`` matching ``begin`` is the last token;
    - ``else`` appears at most once per ``if``, directly inside it;
    - ``break`` appears only inside a ``while``, at any depth.

    The entry node comes from ``begin`` and the exit node from the final
    ``end``. A loop contributes one header node with a back edge from the
    body; symbols after the loop accumulate onto the header's outgoing
    edge. A condition contributes a branch node and a join node, with one
    edge per arm (a missing ``else`` arm becomes an empty fall-through
    edge). ``break`` adds an edge from its position to wherever control
    lands after the loop, carrying the symbols gathered since the last
    conjunction.
    """
    tokens = script.tokens
    if not tokens:
        raise StructureError(0, "empty script")
    if tokens[0].kind is not TokenKind.BEGIN:
        raise StructureError(0, "script must start with 'begin'")
    nodes: list[NodeKind] = [NodeKind.ENTRY]
    edges: list[Edge] = []
    current = 0
    pending: list[tuple[str, int]] = []        # (symbol, token position)
    loose_breaks: list[tuple[int, list]] = []  # break edges awaiting a target
    stack: list[_Frame] = []

    def new_node(kind: NodeKind) -> int:
        nodes.append(kind)
        return len(nodes) - 1

    def flush_to(target: int) -> None:
        nonlocal current, pending
        for src, run in [(current, pending), *loose_breaks]:
            first = run[0][1] if run else None
            edges.append(Edge(src, target, tuple(s for s, _ in run), first))
        loose_breaks.clear()
        pending = []
        current = target

    for i, tok in enumerate(tokens[1:], start=1):
        kind = tok.kind
        if nodes[-1] is NodeKind.EXIT:
            raise StructureError(i, "tokens after the closing 'end'")
        elif kind is TokenKind.SYMBOL:
            pending.append((tok.symbol, tok.position))
        elif kind is TokenKind.BEGIN:
            raise StructureError(i, "'begin' is only allowed as the first token")
        elif kind is TokenKind.WHILE or kind is TokenKind.IF:
            header = new_node(NodeKind.LOOP if kind is TokenKind.WHILE else NodeKind.BRANCH)
            flush_to(header)
            stack.append(_Frame(kind, header))
        elif kind is TokenKind.ELSE:
            if not stack or stack[-1].kind is not TokenKind.IF or stack[-1].join >= 0:
                raise StructureError(i, "'else' outside an open 'if'")
            frame = stack[-1]
            frame.join = new_node(NodeKind.JOIN)
            flush_to(frame.join)            # close the then-arm
            current = frame.header          # else-arm restarts at the branch
        elif kind is TokenKind.BREAK:
            loop = next((f for f in reversed(stack) if f.kind is TokenKind.WHILE), None)
            if loop is None:
                raise StructureError(i, "'break' outside a loop")
            loop.breaks.append((current, list(pending)))
            pending = []
        elif kind is TokenKind.END:
            if not stack:
                flush_to(new_node(NodeKind.EXIT))
            else:
                frame = stack.pop()
                if frame.kind is TokenKind.WHILE:
                    flush_to(frame.header)  # back edge
                    loose_breaks.extend(frame.breaks)
                elif frame.join < 0:        # no else: empty fall-through
                    frame.join = new_node(NodeKind.JOIN)
                    flush_to(frame.join)
                    edges.append(Edge(frame.header, frame.join, (), None))
                else:
                    flush_to(frame.join)
    if nodes[-1] is not NodeKind.EXIT:
        raise StructureError(len(tokens) - 1, "missing 'end' for an open block")
    return IndependencyGraph(script.name, tuple(nodes), tuple(edges))


def to_graph_array(graph: IndependencyGraph) -> GraphArray:
    """Collect the non-empty edge labels, ordered by first-symbol position.

    Raises :class:`EmptyGraph` when the script carried no symbols at all;
    whether that is fatal is the caller's decision.
    """
    labelled = sorted(
        (e for e in graph.edges if e.symbols),
        key=lambda e: e.first_pos,
    )
    if not labelled:
        raise EmptyGraph(f"graph {graph.name!r} has no labelled edges")
    return GraphArray(graph.name, tuple(e.symbols for e in labelled))


def export_dot(graph: IndependencyGraph) -> str:
    """Render the graph in DOT format, symbol lists as edge labels."""
    ends = {NodeKind.ENTRY: "entry", NodeKind.EXIT: "exit"}
    inner = iter(range(1, len(graph.nodes) + 1))  # n1, n2, ... for the other nodes
    names = [ends[kind] if kind in ends else f"n{next(inner)}" for kind in graph.nodes]
    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;"]
    for name, kind in zip(names, graph.nodes):
        shape = "doublecircle" if kind in ends else "circle"
        lines.append(f"  {name} [shape={shape}];")
    for e in graph.edges:
        if e.symbols:
            label = ", ".join(e.symbols)
            lines.append(f'  {names[e.src]} -> {names[e.dst]} [label="{label}"];')
        else:
            lines.append(f"  {names[e.src]} -> {names[e.dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_script(path: str | Path, scmt: Scmt) -> CailScript:
    """Parse a ``.cail`` file; the algorithm ID is the uppercased file stem.

    A leading byte-order mark is dropped; a file that is not UTF-8 text
    raises :class:`DataFileError`.
    """
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_cail(source, scmt, name=path.stem.upper())


def script_to_array(source_text: str, scmt: Scmt, name: str = "script") -> GraphArray:
    """Convenience: parse, build the graph, and extract its cell array."""
    return to_graph_array(build_graph(parse_cail(source_text, scmt, name=name)))
