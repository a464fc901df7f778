"""Seeded request lists for the three benchmark workloads.

A request is generated in two steps.  `build(workload, seed)` draws the
label-free content of every request (orders, tables, monoid choices,
generator relations, morphism ranks) from the seed.  `materialize` then
writes one request's input files under fresh strategy and state labels, so
that every executed request reads bytes no earlier request read, while its
cost stays identical from pass to pass.

The size schedule of each workload is fixed; the seed only decides content
and order.  That keeps the cost mix the same for every seed, so runs with
different seeds measure the same amount of work.

This module does not import the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from oracle import generated_antichain

WORKLOADS = ("derive-wide", "derive-canonical", "monoid-lattice")

# Larger generated monoids make a `check` request cost seconds instead of
# milliseconds (the 4-state function-graph monoids have antichains of
# hundreds); the workload is about typical small generator sets.
MAX_GENS_ANTICHAIN = 12


@dataclass(frozen=True)
class Game:
    """A decision problem by indices: `leq[a]` is the bitmask of outcomes
    b with a <= b (reflexive and transitive); `edges` are the generating
    comparabilities written to the file; `table[x][y]` is an outcome."""

    leq: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.leq)

    @property
    def n_strategies(self) -> int:
        return len(self.table)

    @property
    def n_states(self) -> int:
        return len(self.table[0])


@dataclass(frozen=True)
class Spec:
    """Label-free content of one request.

    kind: derive | check | census | generated | anomalies.
    monoid: ("pareto",), ("universal",), ("beta",), ("dual-beta",),
    ("beta-both",), ("dictator", j), ("filter", (j, ...)), ("atom", j) or
    ("gens", (relation rows, ...)), with states by index.
    rank: for check, the chain element each source outcome maps to.
    """

    kind: str
    game: Game | None = None
    monoid: tuple = ()
    rank: tuple[int, ...] | None = None
    chain: int = 0
    states: int = 0


@dataclass(frozen=True)
class Labels:
    strategies: tuple[str, ...]
    states: tuple[str, ...]


# -- random structures ---------------------------------------------------------


def transitive_closure(rows: list[int]) -> list[int]:
    rows = list(rows)
    for k in range(len(rows)):
        bit = 1 << k
        for i in range(len(rows)):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def random_order(rng: random.Random, n: int, density: float) -> tuple[tuple[int, ...], tuple]:
    """Random partial order built on a shuffled index sequence, so it is
    always acyclic; returns (leq rows, generating edges)."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                edges.append((perm[a], perm[b]))
    rows = [1 << i for i in range(n)]
    for u, v in edges:
        rows[u] |= 1 << v
    return tuple(transitive_closure(rows)), tuple(edges)


def random_game(rng: random.Random, strategies: int, states: int, outcomes: int) -> Game:
    leq, edges = random_order(rng, outcomes, rng.uniform(0.2, 0.5))
    table = tuple(
        tuple(rng.randrange(outcomes) for _ in range(states)) for _ in range(strategies)
    )
    return Game(leq, edges, table)


def linear_extension_rank(rng: random.Random, leq: tuple[int, ...], chain: int) -> tuple[int, ...]:
    """Isotone map onto a chain of `chain` elements: the position of each
    outcome in a random linear extension, scaled down onto the chain."""
    n = len(leq)
    placed: list[int] = []
    remaining = set(range(n))
    while remaining:
        ready = sorted(
            a for a in remaining if not any(leq[b] >> a & 1 for b in remaining if b != a)
        )
        pick = rng.choice(ready)
        placed.append(pick)
        remaining.discard(pick)
    rank = [0] * n
    for pos, a in enumerate(placed):
        rank[a] = pos * chain // n
    return tuple(rank)


def random_relation(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    """A non-empty random relation: the file format has no empty block."""
    while True:
        rows = tuple(
            sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
        )
        if any(rows):
            return rows


# -- workloads -------------------------------------------------------------------


def _derive_wide(rng: random.Random) -> list[Spec]:
    # 100 strategy counts from 30 to 200, spaced so that most are small;
    # the state count cycles through 4..8 and is 8 at 200 strategies.  One
    # request per count keeps a pass near 10 s, so a run holds 3 passes.
    specs = []
    for q in range(100):
        strategies = round(30 * (200 / 30) ** ((q / 99) ** 6))
        states = 8 - (99 - q) % 5
        kind = ("pareto", "universal", "dictator", "filter", "atom")[q % 5]
        if kind == "dictator" or kind == "atom":
            monoid = (kind, rng.randrange(states))
        elif kind == "filter":
            monoid = (kind, tuple(sorted(rng.sample(range(states), 2))))
        else:
            monoid = (kind,)
        game = random_game(rng, strategies, states, rng.randrange(8, 17))
        specs.append(Spec("derive", game, monoid))
    return specs


def _derive_canonical(rng: random.Random) -> list[Spec]:
    specs = []
    for q in range(20):
        strategies = 10 + round(50 * q / 19)
        for states in (2, 3):
            for kind in ("beta", "dual-beta", "beta-both"):
                game = random_game(rng, strategies, states, rng.randrange(8, 17))
                specs.append(Spec("derive", game, (kind,)))
    return specs


def _gens_monoid(rng: random.Random, states: int) -> tuple:
    while True:
        gens = tuple(
            random_relation(rng, states, rng.uniform(0.3, 0.7))
            for _ in range(rng.randint(1, 2))
        )
        if len(generated_antichain(states, gens)) <= MAX_GENS_ANTICHAIN:
            return ("gens", gens)


def _monoid_lattice(rng: random.Random) -> list[Spec]:
    specs = []
    for strategies in range(3, 11):
        for _ in range(15):
            specs.append(Spec("census", random_game(rng, strategies, 2, rng.randrange(4, 9))))
    specs += [Spec("generated", states=3)] * 60
    for q in range(20):
        strategies = 5 + round(15 * q / 19)
        for states in (3, 3, 3, 4, 4, 4):
            game = random_game(rng, strategies, states, rng.randrange(6, 13))
            chain = rng.randrange(2, game.n_outcomes + 1)
            specs.append(
                Spec(
                    "check",
                    game,
                    _gens_monoid(rng, states),
                    linear_extension_rank(rng, game.leq, chain),
                    chain,
                )
            )
    specs += [Spec("anomalies")] * 60
    return specs


def build(workload: str, seed: int) -> list[Spec]:
    """The workload's request list for one pass, in seeded order."""
    makers = {
        "derive-wide": _derive_wide,
        "derive-canonical": _derive_canonical,
        "monoid-lattice": _monoid_lattice,
    }
    rng = random.Random(f"{workload}:{seed}")
    specs = makers[workload](rng)
    rng.shuffle(specs)
    return specs


# -- files -----------------------------------------------------------------------


def tag(serial: int) -> str:
    """Fixed-width label suffix, unique for the first 36**4 requests."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = ""
    for _ in range(4):
        serial, d = divmod(serial, 36)
        out = digits[d] + out
    return out


def labels_for(spec: Spec, serial: int) -> Labels:
    t = tag(serial)
    if spec.game is None:
        return Labels((), ())
    return Labels(
        tuple(f"x{i}q{t}" for i in range(spec.game.n_strategies)),
        tuple(f"y{j}q{t}" for j in range(spec.game.n_states)),
    )


def render_game(game: Game, labels: Labels) -> str:
    lines = [
        "outcomes: " + " ".join(f"o{a}" for a in range(game.n_outcomes)),
        "order: " + " ".join(f"o{u}<o{v}" for u, v in game.edges),
        "strategies: " + " ".join(labels.strategies),
        "states: " + " ".join(labels.states),
    ]
    for x, row in zip(labels.strategies, game.table):
        lines.append(f"row {x}: " + " ".join(f"o{a}" for a in row))
    return "\n".join(lines) + "\n"


def render_relations(rels: tuple, states: tuple[str, ...]) -> str:
    blocks = []
    for rows in rels:
        blocks.append(
            "".join(
                f"{states[i]} {states[j]}\n"
                for i, r in enumerate(rows)
                for j in range(len(rows))
                if r >> j & 1
            )
        )
    return "\n".join(blocks)


def render_morphism(rank: tuple[int, ...], chain: int) -> str:
    lines = [
        "outcomes: " + " ".join(f"c{i}" for i in range(chain)),
        "order: " + " ".join(f"c{i}<c{i + 1}" for i in range(chain - 1)),
    ]
    lines += [f"map o{a} -> c{r}" for a, r in enumerate(rank)]
    return "\n".join(lines) + "\n"


def monoid_arg(spec: Spec, labels: Labels, gens_path: str) -> str:
    kind = spec.monoid[0]
    if kind in ("dictator", "atom"):
        return f"{kind}={labels.states[spec.monoid[1]]}"
    if kind == "filter":
        return "filter=" + ",".join(labels.states[j] for j in spec.monoid[1])
    if kind == "gens":
        return f"gens={gens_path}"
    return kind


def materialize(spec: Spec, serial: int, workdir: Path, name: str) -> tuple[list[str], Labels]:
    """Write the request's files under `workdir` and return its argv."""
    labels = labels_for(spec, serial)
    if spec.kind == "anomalies":
        return ["anomalies"], labels
    if spec.kind == "generated":
        return ["lattice", "--states", str(spec.states), "--generated", "--max-gens", "1"], labels
    game_path = workdir / f"{name}.dmp"
    game_path.write_text(render_game(spec.game, labels))
    if spec.kind == "census":
        return ["lattice", "--dmp", str(game_path)], labels
    gens_path = workdir / f"{name}.gens"
    if spec.monoid[0] == "gens":
        gens_path.write_text(render_relations(spec.monoid[1], labels.states))
    argv = [spec.kind, "--dmp", str(game_path), "--monoid", monoid_arg(spec, labels, str(gens_path))]
    if spec.kind == "check":
        mor_path = workdir / f"{name}.mor"
        mor_path.write_text(render_morphism(spec.rank, spec.chain))
        argv += ["--morphism", str(mor_path)]
    return argv, labels
