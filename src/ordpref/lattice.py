"""Enumeration of closed submonoids and the structure of their lattice.

Exhaustive enumeration is only done for two states: the 16 relations form a
boolean lattice, and its up-sets that hold the identity (84 of them) are
walked from up(identity) by adding one relation at a time whose proper
supersets are already in; only those are tested for closure under
composition.  For three states the generated mode takes closures of small
generator sets instead, through the semi-naive, bounded `closure()`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .dmp import DMP, Preference, _cells
from .monoids import NAMED_MONOIDS, ClosedMonoid, closure, reflexive_monoid
from .relations import (
    BinaryRelation,
    GroundSet,
    GroundSetMismatchError,
    all_relations,
    compose_bits,
)


@dataclass(frozen=True)
class MonoidLattice:
    ground: GroundSet
    elements: tuple[ClosedMonoid, ...]
    hasse_edges: tuple[tuple[int, int], ...]
    atoms: tuple[int, ...]
    dual_atoms: tuple[int, ...]
    least: int
    greatest: int


# `enumerate_generated` draws generators from the 2^(n²) relations on n
# states and takes one closure per generator set.  It refuses more than
# 2^16 of either: one closure per relation on 4 states.
MAX_POOL_CELLS = 16
MAX_GENERATED_CLOSURES = 1 << MAX_POOL_CELLS


def enumerate_exhaustive(ground: GroundSet) -> MonoidLattice:
    """All closed submonoids on a two-element state set, with lattice data."""
    if ground.size != 2:
        raise ValueError(
            "exhaustive enumeration supports exactly 2 states; "
            "use enumerate_generated for larger sets"
        )
    n = ground.size
    # A family is a mask over the relations on `ground`: bit r stands for
    # the relation whose bits are r.  Adding to an up-closed family a
    # non-member whose proper supersets are all members keeps it up-closed,
    # and every up-set that holds the identity is reached that way from
    # up(identity), by adding a maximal missing member at each step.
    rels = range(1 << n * n)
    above = [sum(1 << s for s in rels if s != r and r & ~s == 0) for r in rels]
    below = [sum(1 << s for s in rels if s != r and s & ~r == 0) for r in rels]
    identity = BinaryRelation.identity(ground).bits
    start = above[identity] | 1 << identity
    families = {start}
    todo = [start]
    while todo:
        family = todo.pop()
        for r in rels:
            grown = family | 1 << r
            if family & above[r] == above[r] and grown not in families:
                families.add(grown)
                todo.append(grown)
    # An up-set is closed under composition iff its minimal members are.
    minimal = {}
    for family in families:
        least = [r for r in rels if family >> r & 1 and not family & below[r]]
        if all(family >> compose_bits(a, b, n) & 1 for a in least for b in least):
            minimal[family] = least
    member_masks = sorted(minimal, key=lambda m: (m.bit_count(), m))
    elements = tuple(
        ClosedMonoid(ground, tuple(BinaryRelation(ground, r) for r in minimal[family]))
        for family in member_masks
    )
    return _build_lattice(ground, elements, member_masks)


def _build_lattice(
    ground: GroundSet,
    elements: tuple[ClosedMonoid, ...],
    masks: Sequence[int],
) -> MonoidLattice:
    """The Hasse diagram of `elements`, sorted by (member count, mask), so
    the least element comes first and the greatest last."""
    n = len(elements)
    below = [
        [i != j and masks[i] & ~masks[j] == 0 for j in range(n)] for i in range(n)
    ]
    edges = []
    for i in range(n):
        for j in range(n):
            if below[i][j] and not any(
                below[i][k] and below[k][j] for k in range(n)
            ):
                edges.append((i, j))
    atoms = tuple(sorted(j for i, j in edges if i == 0))
    dual_atoms = tuple(sorted(i for i, j in edges if j == n - 1))
    return MonoidLattice(ground, elements, tuple(sorted(edges)), atoms, dual_atoms, 0, n - 1)


def check_generated(n_states: int, max_generators: int) -> None:
    """Raise ValueError if `enumerate_generated` on `n_states` states would
    draw from more than MAX_GENERATED_CLOSURES relations or take more
    closures than that.  Decided from the counts, building nothing."""
    cells = n_states * n_states
    if cells <= MAX_POOL_CELLS:
        pool = 1 << cells
        sets = sum(comb(pool, k) for k in range(1, min(max_generators, pool) + 1))
        if sets <= MAX_GENERATED_CLOSURES:
            return
    if max_generators > 0:
        raise ValueError(
            f"more than {MAX_GENERATED_CLOSURES} generator sets of up to "
            f"{max_generators} of 2^{cells} relations"
        )
    raise ValueError(
        f"more than {MAX_GENERATED_CLOSURES} relations to draw generators from: "
        f"2^{cells} on {n_states} states"
    )


def enumerate_generated(ground: GroundSet, max_generators: int = 1) -> list[ClosedMonoid]:
    """Closures of all generator subsets up to `max_generators`, deduplicated.
    Raises ValueError from `check_generated` before building any relation."""
    check_generated(ground.size, max_generators)
    seen: dict[tuple, ClosedMonoid] = {}
    base = reflexive_monoid(ground)
    seen[base.min_antichain] = base
    for k in range(1, min(max_generators, 1 << ground.size**2) + 1):
        for gens in itertools.combinations(all_relations(ground), k):
            monoid = closure(ground, gens)
            seen.setdefault(monoid.min_antichain, monoid)
    return sorted(
        seen.values(), key=lambda m: tuple(rel.rows for rel in m.min_antichain)
    )


def preference_census(
    game: DMP, lattice: MonoidLattice
) -> list[tuple[Preference, tuple[int, ...]]]:
    """Distinct derived preferences over the lattice elements, each with the
    sorted indices of the monoids inducing it.  The cells of every
    strategy's row are built once, as in `derive`, and each element selects
    its preference rows from them."""
    if lattice.ground != game.states:
        raise GroundSetMismatchError("lattice must live on the game's state set")
    table = [_cells(game, row) for row in game.table]
    full = (1 << game.strategies.size) - 1
    groups: dict[BinaryRelation, list[int]] = {}
    for idx, monoid in enumerate(lattice.elements):
        rows = [monoid._select(cells, full) for cells in table]
        rel = BinaryRelation.from_rows(game.strategies, rows)
        groups.setdefault(rel, []).append(idx)
    return [(Preference(game.strategies, rel), tuple(idxs)) for rel, idxs in groups.items()]


def canonical_names(ground: GroundSet) -> list[tuple[str, ClosedMonoid]]:
    """The NAMED_MONOIDS on `ground` in display-precedence order; a
    per-state name carries its state, as in dictator:y1.  Atoms need two
    states."""
    named = []
    for name, (build, per_state) in NAMED_MONOIDS.items():
        if not per_state:
            named.append((name, build(ground)))
        elif name != "atom" or ground.size >= 2:
            named += [(f"{name}:{y}", build(ground, y)) for y in ground.labels]
    return named


def element_labels(lattice: MonoidLattice) -> list[str]:
    """A deterministic display name per lattice element: its first canonical
    name, else its signature."""
    names: dict[ClosedMonoid, str] = {}
    for name, monoid in canonical_names(lattice.ground):
        names.setdefault(monoid, name)
    return [names[m] if m in names else m.signature() for m in lattice.elements]


def _dot_id(name: str) -> str:
    """A DOT quoted string holding `name`."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(lattice: MonoidLattice, labels: Sequence[str] | None = None) -> str:
    """Deterministic DOT rendering of the Hasse diagram, edges upward."""
    if labels is None:
        labels = element_labels(lattice)
    lines = ["digraph closed_submonoids {", "  rankdir=BT;"]
    for name in sorted(labels):
        lines.append(f"  {_dot_id(name)};")
    edge_names = sorted((labels[i], labels[j]) for i, j in lattice.hasse_edges)
    for lo, hi in edge_names:
        lines.append(f"  {_dot_id(lo)} -> {_dot_id(hi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
