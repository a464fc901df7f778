"""Line-oriented text formats for games, relations, and morphisms.

Game files have five sections; '#' starts a comment, blank lines are
ignored, tokens are whitespace-separated::

    outcomes: 0 a b c 1
    order: 0<a 0<b 0<c a<1 b<1 c<1
    strategies: x1 x2
    states: y1 y2 y3
    row x1: b c 0
    row x2: 0 a 1

Relation files hold one "yi yj" pair per line; in generator files, blank
lines separate the generators.  Morphism files have target "outcomes:" and
"order:" sections plus "map a -> b" lines.  Game and morphism files share
one grammar: each "name:" section exactly once, in any order, plus the
format's own "row" or "map" lines.
"""

from __future__ import annotations

from typing import Callable

from .dmp import DMP, Preference
from .orders import OrderValidationError, PartialOrder, from_comparabilities
from .relations import BinaryRelation, GroundSet


class DmpParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _sections(
    text: str, names: tuple[str, ...], keyword: str, handle: Callable[[list[str], int], None]
) -> dict:
    """The "name: ..." sections of a file, each once, as name -> (line,
    tokens); lines that start with `keyword` go to `handle(tokens, line)`."""
    sections: dict[str, tuple[int, list[str]]] = {}
    for lineno, body in _logical_lines(text):
        tokens = body.split()
        name = tokens[0][:-1]
        if tokens[0].endswith(":") and name in names:
            if name in sections:
                raise DmpParseError(f"duplicate section {name!r}", lineno)
            sections[name] = (lineno, tokens[1:])
        elif tokens[0] == keyword:
            handle(tokens, lineno)
        else:
            raise DmpParseError(f"unrecognized line {body!r}", lineno)
    for name in names:
        if name not in sections:
            raise DmpParseError(f"missing section {name!r}")
    return sections


def _ground(sections: dict, name: str) -> GroundSet:
    lineno, labels = sections[name]
    try:
        return GroundSet(tuple(labels))
    except ValueError as exc:
        raise DmpParseError(str(exc), lineno) from None


def _order(sections: dict, outcomes: GroundSet) -> PartialOrder:
    """The "order:" section's comparabilities u<v, closed into a partial
    order on `outcomes`."""
    lineno, items = sections["order"]
    pairs = []
    for item in items:
        u, _, v = item.partition("<")
        if not u or not v:
            raise DmpParseError(f"order item {item!r} must look like u<v", lineno)
        pairs.append((u, v))
    for u, v in pairs:
        for lab in (u, v):
            if lab not in outcomes:
                raise DmpParseError(f"unknown outcome {lab!r} in order", lineno)
    try:
        return from_comparabilities(outcomes, pairs)
    except OrderValidationError as exc:
        raise DmpParseError(str(exc), lineno) from None


def parse_dmp(text: str) -> DMP:
    rows: dict[str, tuple[int, list[str]]] = {}

    def row(tokens: list[str], lineno: int) -> None:
        if len(tokens) < 2 or not tokens[1].endswith(":"):
            raise DmpParseError("row line must look like 'row <strategy>: ...'", lineno)
        strategy = tokens[1][:-1]
        if strategy in rows:
            raise DmpParseError(f"duplicate row for strategy {strategy!r}", lineno)
        rows[strategy] = (lineno, tokens[2:])

    sections = _sections(text, ("outcomes", "order", "strategies", "states"), "row", row)
    outcomes = _ground(sections, "outcomes")
    strategies = _ground(sections, "strategies")
    states = _ground(sections, "states")
    order = _order(sections, outcomes)

    table_rows = {}
    for strategy in strategies.labels:
        if strategy not in rows:
            raise DmpParseError(f"missing row for strategy {strategy!r}")
        lineno, entries = rows[strategy]
        if len(entries) != states.size:
            raise DmpParseError(
                f"row for {strategy!r} has {len(entries)} entries, expected {states.size}",
                lineno,
            )
        for lab in entries:
            if lab not in outcomes:
                raise DmpParseError(f"unknown outcome {lab!r}", lineno)
        table_rows[strategy] = entries
    for strategy, (lineno, _) in rows.items():
        if strategy not in strategies:
            raise DmpParseError(f"row for undeclared strategy {strategy!r}", lineno)
    return DMP.from_labels(strategies, states, order, table_rows)


def parse_relations(text: str, states: GroundSet) -> list[BinaryRelation]:
    """Blank-line separated blocks of "yi yj" pair lines, one relation each.
    A file with no pairs at all yields a single empty relation."""
    blocks: list[list[tuple[str, str]]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            if blocks[-1]:
                blocks.append([])
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise DmpParseError("relation line must hold exactly two state labels", lineno)
        for lab in tokens:
            if lab not in states:
                raise DmpParseError(f"unknown state {lab!r}", lineno)
        blocks[-1].append((tokens[0], tokens[1]))
    if not blocks[-1] and len(blocks) > 1:
        blocks.pop()
    return [BinaryRelation.from_pairs(states, block) for block in blocks]


def parse_morphism(text: str, source_outcomes: GroundSet) -> tuple[dict[str, str], PartialOrder]:
    """Target order plus the outcome map of a morphism file."""
    mapping: dict[str, str] = {}

    def map_line(tokens: list[str], lineno: int) -> None:
        if len(tokens) != 4 or tokens[2] != "->":
            raise DmpParseError("map line must look like 'map a -> b'", lineno)
        src, dst = tokens[1], tokens[3]
        if src not in source_outcomes:
            raise DmpParseError(f"unknown source outcome {src!r}", lineno)
        if src in mapping:
            raise DmpParseError(f"duplicate map entry for {src!r}", lineno)
        mapping[src] = dst

    sections = _sections(text, ("outcomes", "order"), "map", map_line)
    target_ground = _ground(sections, "outcomes")
    order = _order(sections, target_ground)
    for dst in mapping.values():
        if dst not in target_ground:
            raise DmpParseError(f"unknown target outcome {dst!r}")
    return mapping, order


def render_preference(pref: Preference) -> str:
    """Boolean matrix in strategy order plus readable pair lines."""
    labels = pref.ground.labels
    width = f"0{len(labels)}b"
    lines = ["    " + " ".join(f"{lab:>3}" for lab in labels)]
    for x1, row in zip(labels, pref.rel.rows):
        # each cell is its bit right-aligned to 3 columns, one space apart
        lines.append(f"{x1:>3}   " + "   ".join(format(row, width)[::-1]))
    for x1, x2 in pref.rel.pairs():
        lines.append(f"{x2} >= {x1}")
    return "\n".join(lines) + "\n"
