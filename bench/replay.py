"""Traced replay of benchmark requests through the package's public
functions.

Each request is replayed as the sequence of calls its `ordpref` command
makes, with a span around each call into a module, and its stdout is
rebuilt exactly as the command prints it.  `state_preference`, `pullback`,
`contains` and `classify` run as probes: spans of their own after the
request, on the same inputs, once for each derive the command makes, so
that the split survives changes to how `derive` works inside.  The call
counts of `state_preference`, `pullback` and `ClosedMonoid.contains` are
the program's own: counting shims replace them while a request runs.  The
anomaly corpus is built by private code in `cli`, so it is replayed as one
call to `cmd_anomalies`, and alpha is measured by a probe.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from math import comb
from pathlib import Path
from time import perf_counter

from ordpref import cli, dmp, fixtures
from ordpref.dmp import (
    alpha,
    apply_morphism,
    check_functoriality,
    derive,
    dualize,
    is_suitable,
    pareto,
    state_preference,
)
from ordpref.lattice import (
    element_labels,
    enumerate_exhaustive,
    enumerate_generated,
    preference_census,
)
from ordpref.monoids import ClosedMonoid, closure
from ordpref.orders import pullback
from ordpref.relations import BinaryRelation, GroundSet
from ordpref.textio import parse_dmp, parse_morphism, parse_relations, render_preference

# Spans whose busy time (and, for COUNTED_SPANS, call count) a traced run
# reports; COUNTED_CALLS are counted by the shims in `_counting`.
TIMED_SPANS = (
    "dmp.derive",
    "dmp.state_preference",
    "orders.pullback",
    "monoids.build",
    "monoids.contains",
    "lattice.enumerate_exhaustive",
    "lattice.element_labels",
    "lattice.preference_census",
    "lattice.enumerate_generated",
    "textio.parse_relations",
    "textio.parse_morphism",
    "dmp.pareto",
    "dmp.check_functoriality",
    "dmp.alpha",
    "textio.parse_dmp",
    "textio.render_preference",
    "relations.classify",
    "dmp.maximal",
    "dmp.is_suitable",
)
COUNTED_SPANS = ("monoids.build", "textio.parse_dmp")
COUNTED_CALLS = ("dmp.state_preference", "orders.pullback", "monoids.contains")


class Tracer:
    """Spans of one traced run, kept in memory until `write`.

    A span is (request id, span id, parent span id or None, name, start,
    end, calls); `calls` is how many calls the span covers.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.request, span_id, parent, name, start, end, calls)

    def metrics(self) -> dict[str, float]:
        busy: Counter = Counter()
        calls: Counter = Counter()
        children: Counter = Counter()
        for _, _, parent, name, start, end, n in self.spans:
            busy[name] += end - start
            calls[name] += n
            if parent is not None:
                children[parent] += end - start
        request_self = sum(
            end - start - children[span_id]
            for _, span_id, _, name, start, end, _ in self.spans
            if name == "cli.request"
        )
        out = {f"{name}_ms": busy[name] * 1e3 for name in TIMED_SPANS}
        out.update({f"{name}_calls": calls[name] for name in COUNTED_SPANS})
        out.update({f"{name}_calls": self.counts[name] for name in COUNTED_CALLS})
        out["dmp.pairs"] = self.counts["dmp.pairs"]
        out["monoids.antichain_members"] = self.counts["monoids.antichain_members"]
        out["monoids.accept_ratio"] = _ratio(self.counts["monoids.accepted"], self.counts["monoids.contains"])
        out["lattice.distinct_ratio"] = _ratio(self.counts["lattice.distinct"], self.counts["lattice.closures"])
        out["cli.request_ms"] = busy["cli.request"] * 1e3
        out["cli.self_ms"] = request_self * 1e3
        return out

    def write(self, path: Path) -> None:
        fields = ("request", "span", "parent", "name", "start", "end", "calls")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def replay(argv: list[str], tr: Tracer) -> int:
    """Run one request as its command's public calls; prints like the CLI."""
    probes: list = []
    with _counting(tr), tr.span("cli.request"):
        args = cli.build_parser().parse_args(argv)
        command = {
            "derive": _derive,
            "check": _check,
            "lattice": _lattice,
            "anomalies": _anomalies,
        }[args.command]
        code = command(args, tr, probes)
    for probe in probes:
        probe(tr)
    return code


@contextmanager
def _counting(tr: Tracer):
    """Count the calls the program itself makes to state_preference,
    pullback and ClosedMonoid.contains, and the memberships accepted."""
    counts = tr.counts
    state_pref, pull, contains = dmp.state_preference, dmp.pullback, ClosedMonoid.contains

    def counted_state_preference(*args):
        counts["dmp.state_preference"] += 1
        return state_pref(*args)

    def counted_pullback(*args):
        counts["orders.pullback"] += 1
        return pull(*args)

    def counted_contains(self, rel):
        counts["monoids.contains"] += 1
        accepted = contains(self, rel)
        counts["monoids.accepted"] += accepted
        return accepted

    dmp.state_preference, dmp.pullback = counted_state_preference, counted_pullback
    ClosedMonoid.contains = counted_contains
    try:
        yield
    finally:
        dmp.state_preference, dmp.pullback = state_pref, pull
        ClosedMonoid.contains = contains


def _load(path: str, tr: Tracer):
    text = Path(path).read_text()
    with tr.span("textio.parse_dmp"):
        return parse_dmp(text)


def _monoid(spec: str, states: GroundSet, tr: Tracer):
    if spec.startswith("gens="):
        text = Path(spec[len("gens="):]).read_text()
        with tr.span("textio.parse_relations"):
            rels = parse_relations(text, states)
        with tr.span("monoids.build"):
            monoid = closure(states, rels)
    else:
        with tr.span("monoids.build"):
            monoid = cli.parse_monoid_spec(spec, states)
    tr.counts["monoids.antichain_members"] += len(monoid.min_antichain)
    return monoid


def _note_derive(game, monoid, tr: Tracer, probes: list) -> None:
    """Count the pairs one derive call tests and queue its probes."""
    tr.counts["dmp.pairs"] += game.strategies.size ** 2
    probes.append(lambda t: _membership_probe(t, game, monoid))


def _traced_derive(game, monoid, tr: Tracer, probes: list):
    _note_derive(game, monoid, tr, probes)
    with tr.span("dmp.derive"):
        return derive(game, monoid)


def _membership_probe(tr: Tracer, game, monoid) -> None:
    """The per-pair calls of one derive, each kind in one span."""
    labels = game.strategies.labels
    n = len(labels) ** 2
    with tr.span("dmp.state_preference", n):
        rhos = [state_preference(game, x1, x2) for x1 in labels for x2 in labels]
    maps = [game.f_star(x) for x in labels]
    with tr.span("orders.pullback", n):
        for phi in maps:
            for psi in maps:
                pullback(phi, psi, game.outcomes)
    with tr.span("monoids.contains", n):
        accepted = [monoid.contains(rho) for rho in rhos]
    size = len(labels)
    rel = BinaryRelation.from_index_pairs(
        game.strategies, (divmod(p, size) for p, ok in enumerate(accepted) if ok)
    )
    with tr.span("relations.classify"):
        rel.classify()


def _derive(args, tr: Tracer, probes: list) -> int:
    game = _load(args.dmp, tr)
    monoid = _monoid(args.monoid, game.states, tr)
    pref = _traced_derive(game, monoid, tr, probes)
    print(f"derived preference for monoid {args.monoid}:")
    with tr.span("textio.render_preference"):
        text = render_preference(pref)
    print(text, end="")
    with tr.span("dmp.maximal"):
        maximal = pref.maximal()
    print("maximal strategies: " + " ".join(maximal))
    with tr.span("dmp.is_suitable"):
        ok, witness = is_suitable(game, pref)
    verdict = "yes" if ok else f"no, witness {witness}"
    print(f"suitable (never contradicts strict Pareto): {verdict}")
    return 0


def _check(args, tr: Tracer, probes: list) -> int:
    game = _load(args.dmp, tr)
    monoid = _monoid(args.monoid, game.states, tr)
    pref = _traced_derive(game, monoid, tr, probes)
    with tr.span("relations.classify"):
        preorder = pref.rel.classify().preorder
    verdicts = [("A1 preorder", preorder, "")]
    with tr.span("dmp.pareto"):
        pareto_ok = pareto(game).rel.is_subset(pref.rel)
    verdicts.append(("A2 contains Pareto-domination", pareto_ok, ""))
    if args.morphism:
        text = Path(args.morphism).read_text()
        with tr.span("textio.parse_morphism"):
            mapping, target = parse_morphism(text, game.outcomes.ground)
        with tr.span("dmp.apply_morphism"):
            morphism, image = apply_morphism(game, mapping, target)
        _note_derive(game, monoid, tr, probes)
        _note_derive(image, monoid, tr, probes)
        with tr.span("dmp.check_functoriality"):
            a3_ok, witness = check_functoriality(morphism, monoid)
        verdicts.append(
            ("A3 morphism preserves preference", a3_ok, f" witness {witness}" if witness else "")
        )
    with tr.span("dmp.is_suitable"):
        a5_ok, witness = is_suitable(game, pref)
    verdicts.append(("A5 suitable", a5_ok, f" witness {witness}" if witness else ""))
    for label, flag, extra in verdicts:
        print(f"[{'PASS' if flag else 'FAIL'}] {label}{extra}")
    return 0 if all(flag for _, flag, _ in verdicts) else 1


def _lattice(args, tr: Tracer, probes: list) -> int:
    if args.generated:
        states = GroundSet(tuple(f"y{i + 1}" for i in range(args.states)))
        with tr.span("lattice.enumerate_generated"):
            monoids = enumerate_generated(states, max_generators=args.max_gens)
        pool = 2 ** (states.size ** 2)
        tr.counts["lattice.closures"] += sum(comb(pool, k) for k in range(1, args.max_gens + 1))
        tr.counts["lattice.distinct"] += len(monoids)
        print(f"{len(monoids)} closed submonoids generated by up to "
              f"{args.max_gens} relations on {states.size} states")
        return 0
    game = _load(args.dmp, tr)
    with tr.span("lattice.enumerate_exhaustive"):
        lattice = enumerate_exhaustive(game.states)
    with tr.span("lattice.element_labels"):
        labels = element_labels(lattice)
    print(f"{len(lattice.elements)} closed submonoids on 2 states")
    print(f"least: {labels[lattice.least]}")
    print(f"greatest: {labels[lattice.greatest]}")
    print("atoms: " + " ".join(sorted(labels[i] for i in lattice.atoms)))
    print("dual atoms: " + " ".join(sorted(labels[i] for i in lattice.dual_atoms)))
    for monoid in lattice.elements:
        _note_derive(game, monoid, tr, probes)
    with tr.span("lattice.preference_census"):
        census = preference_census(game, lattice)
    print(f"{len(census)} distinct derived preferences:")
    for pref_id, (pref, idxs) in enumerate(census):
        pairs = " ".join(f"({u},{v})" for u, v in pref.rel.pairs())
        print(f"  pref {pref_id}: {pairs}")
        print(f"{pref_id}\t{','.join(str(i) for i in idxs)}")
    return 0


def _anomalies(args, tr: Tracer, probes: list) -> int:
    probes.append(_alpha_probe)
    return cli.cmd_anomalies(args)


def _alpha_probe(tr: Tracer) -> None:
    """The seven alpha calls the anomaly corpus makes."""
    mapping, target = fixtures.example2_morphism()
    _, image = apply_morphism(fixtures.example2(), mapping, target)
    games = [
        fixtures.example1(),
        dualize(fixtures.example1()),
        fixtures.example2(),
        image,
        fixtures.example3(),
        fixtures.example4(),
        fixtures.example4_extended(),
    ]
    with tr.span("dmp.alpha", len(games)):
        for game in games:
            alpha(game)

