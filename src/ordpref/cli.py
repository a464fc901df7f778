"""Command-line surface.

Exit codes: 0 success / all checks passed, 1 check or scenario failure,
2 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dmp as dmp_ops
from . import fixtures
from .dmp import MorphismError, apply_morphism, check_functoriality, derive
from .lattice import (
    check_generated,
    element_labels,
    enumerate_exhaustive,
    enumerate_generated,
    export_dot,
    preference_census,
)
from .monoids import NAMED_MONOIDS, ClosedMonoid, closure, filter_monoid, idempotent_monoid
from .orders import OrderValidationError
from .relations import GroundSet, GroundSetMismatchError
from .textio import (
    DmpParseError,
    parse_dmp,
    parse_morphism,
    parse_relations,
    render_preference,
)


class InputError(Exception):
    pass


def _parse(path: str, parser, *args):
    """`parser` applied to the UTF-8 text of the file at `path` and `args`;
    a file that cannot be read or parsed is an input error naming `path`."""
    try:
        return parser(Path(path).read_text(encoding="utf-8"), *args)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except DmpParseError as exc:
        raise InputError(f"{path}: {exc}") from None


# Older spellings of three named monoids, after their relation families.
_SPEC_ALIASES = {"reflexive": "pareto", "surjective": "beta", "total": "dual-beta"}


def parse_monoid_spec(spec: str, states: GroundSet) -> ClosedMonoid:
    """Monoid by name (NAMED_MONOIDS, NAME=Y for a per-state one),
    filter=Y1,Y2, or a relation file: idempotent=FILE or gens=FILE.  A name
    is known only in the form the "known:" list shows, with "=" exactly when
    it takes an argument."""
    name, eq, arg = spec.partition("=")
    name = _SPEC_ALIASES.get(name, name)
    takes_arg = NAMED_MONOIDS[name][1] if name in NAMED_MONOIDS else True
    if bool(eq) != takes_arg:
        raise _unknown_spec(spec)
    try:
        if name in NAMED_MONOIDS:
            build, per_state = NAMED_MONOIDS[name]
            return build(states, arg) if per_state else build(states)
        if name == "filter":
            return filter_monoid(states, arg.split(","))
        if name == "idempotent":
            rels = _parse(arg, parse_relations, states)
            if len(rels) != 1:
                raise InputError(f"{arg}: expected exactly one relation")
            return idempotent_monoid(states, rels[0])
        if name == "gens":
            return closure(states, _parse(arg, parse_relations, states))
    except KeyError as exc:  # str() of a KeyError is its repr
        raise InputError(f"monoid spec {spec!r}: {exc.args[0]}") from None
    except ValueError as exc:
        raise InputError(f"monoid spec {spec!r}: {exc}") from None
    raise _unknown_spec(spec)


def _unknown_spec(spec: str) -> InputError:
    known = [key + "=Y" * per_state for key, (_, per_state) in NAMED_MONOIDS.items()]
    return InputError(
        f"unknown monoid spec {spec!r}; known: {', '.join(known)}, "
        "filter=Y1,Y2, idempotent=FILE, gens=FILE"
    )


def cmd_derive(args: argparse.Namespace) -> int:
    game = _parse(args.dmp, parse_dmp)
    monoid = parse_monoid_spec(args.monoid, game.states)
    pref = derive(game, monoid)
    print(f"derived preference for monoid {args.monoid}:")
    print(render_preference(pref), end="")
    print("maximal strategies: " + " ".join(pref.maximal()))
    ok, witness = dmp_ops.is_suitable(game, pref)
    verdict = "yes" if ok else f"no, witness {witness}"
    print(f"suitable (never contradicts strict Pareto): {verdict}")
    return 0


def _anomaly_scenarios() -> list[tuple[str, list[tuple[str, bool]]]]:
    scenarios = []

    g1 = fixtures.example1()
    a1 = dmp_ops.alpha(g1)
    a1_dual = dmp_ops.alpha(dmp_ops.dualize(g1))
    cs = dmp_ops.characteristic_sets(g1)
    cs_dual = dmp_ops.characteristic_sets(dmp_ops.dualize(g1))
    scenarios.append(
        (
            "example 1: value without saddle points, duality broken",
            [
                ("x1 is alpha-greatest", "x1" in a1.greatest),
                ("y1 is alpha-greatest after dualizing", "y1" in a1_dual.greatest),
                ("V = U = {0}", cs.has_generalized_value and cs.lower == {"0"}),
                ("no saddle points", dmp_ops.saddle_points(g1) == ()),
                ("dual game has V* != U*", not cs_dual.has_generalized_value),
            ],
        )
    )

    g2 = fixtures.example2()
    mapping, target = fixtures.example2_morphism()
    _, image = apply_morphism(g2, mapping, target)
    before = dmp_ops.alpha(g2).greatest
    after = dmp_ops.alpha(image).greatest
    scenarios.append(
        (
            "example 2: alpha-greatest flips under the p+q convolution",
            [
                ("x1 alpha-greatest before", before == ("x1",)),
                ("x2 alpha-greatest after", after == ("x2",)),
            ],
        )
    )

    g3 = fixtures.example3()
    a3 = dmp_ops.alpha(g3)
    suitable, _ = dmp_ops.is_suitable(g3, a3.preference)
    scenarios.append(
        (
            "example 3: alpha-equivalence despite strict Pareto-domination",
            [
                ("V_x1 = V_x2", a3.guaranteed["x1"] == a3.guaranteed["x2"]),
                ("x2 strictly Pareto-dominates x1", dmp_ops.strict_pareto(g3).holds("x1", "x2")),
                ("alpha preference is not suitable", not suitable),
            ],
        )
    )

    g4 = fixtures.example4()
    g4x = fixtures.example4_extended()
    a4 = dmp_ops.alpha(g4)
    a4x = dmp_ops.alpha(g4x)
    incomparable = not a4x.preference.holds("x1", "x2") and not a4x.preference.holds(
        "x2", "x1"
    )
    scenarios.append(
        (
            "example 4: alpha-greatest lost by adding non-realized outcomes",
            [
                ("x1 alpha-greatest in the base game", a4.greatest == ("x1",)),
                ("x1, x2 alpha-incomparable after the extension", incomparable),
            ],
        )
    )
    return scenarios


def cmd_anomalies(_args: argparse.Namespace) -> int:
    scenarios = _anomaly_scenarios()
    passed = 0
    for name, checks in scenarios:
        ok = all(flag for _, flag in checks)
        passed += ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        for label, flag in checks:
            print(f"    {'ok  ' if flag else 'FAIL'} {label}")
    print(f"{passed}/{len(scenarios)} scenarios passed")
    return 0 if passed == len(scenarios) else 1


def cmd_lattice(args: argparse.Namespace) -> int:
    game = _parse(args.dmp, parse_dmp) if args.dmp else None
    # Every size bound is checked before the state set is built.
    n = game.states.size if game else args.states
    if n < 1:
        raise InputError(f"--states must be at least 1, got {n}")
    if args.generated:
        if args.dot:
            raise InputError(
                "--dot draws the two-state lattice and cannot be used with --generated"
            )
        if args.max_gens < 0:
            raise InputError(f"--max-gens must be at least 0, got {args.max_gens}")
        try:
            check_generated(n, args.max_gens)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    elif n != 2:
        raise InputError(
            "exhaustive enumeration needs exactly 2 states; pass --generated "
            "with --max-gens for larger state sets"
        )
    states = game.states if game else GroundSet(tuple(f"y{i + 1}" for i in range(n)))

    if args.generated:
        monoids = enumerate_generated(states, max_generators=args.max_gens)
        print(f"{len(monoids)} closed submonoids generated by up to "
              f"{args.max_gens} relations on {states.size} states")
        return 0

    lattice = enumerate_exhaustive(states)
    labels = element_labels(lattice)
    print(f"{len(lattice.elements)} closed submonoids on 2 states")
    print(f"least: {labels[lattice.least]}")
    print(f"greatest: {labels[lattice.greatest]}")
    print("atoms: " + " ".join(sorted(labels[i] for i in lattice.atoms)))
    print("dual atoms: " + " ".join(sorted(labels[i] for i in lattice.dual_atoms)))
    if args.dot:
        try:
            Path(args.dot).write_text(export_dot(lattice, labels), encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from None
        print(f"wrote {args.dot}")
    if game is not None:
        census = preference_census(game, lattice)
        print(f"{len(census)} distinct derived preferences:")
        for pref_id, (pref, idxs) in enumerate(census):
            pairs = " ".join(f"({u},{v})" for u, v in pref.rel.pairs())
            print(f"  pref {pref_id}: {pairs}")
            print(f"{pref_id}\t{','.join(str(i) for i in idxs)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    game = _parse(args.dmp, parse_dmp)
    monoid = parse_monoid_spec(args.monoid, game.states)
    pref = derive(game, monoid)
    verdicts = []
    verdicts.append(("A1 preorder", pref.rel.classify().preorder, ""))
    pareto_ok = dmp_ops.pareto(game).rel.is_subset(pref.rel)
    verdicts.append(("A2 contains Pareto-domination", pareto_ok, ""))
    if args.morphism:
        mapping, target = _parse(args.morphism, parse_morphism, game.outcomes.ground)
        try:
            morphism, _ = apply_morphism(game, mapping, target)
        except MorphismError as exc:
            raise InputError(f"{args.morphism}: {exc}") from None
        a3_ok, witness = check_functoriality(morphism, monoid)
        verdicts.append(
            ("A3 morphism preserves preference", a3_ok, f" witness {witness}" if witness else "")
        )
    a5_ok, witness = dmp_ops.is_suitable(game, pref)
    verdicts.append(
        ("A5 suitable", a5_ok, f" witness {witness}" if witness else "")
    )
    all_ok = True
    for label, flag, extra in verdicts:
        print(f"[{'PASS' if flag else 'FAIL'}] {label}{extra}")
        all_ok &= flag
    return 0 if all_ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    game = _parse(args.dmp, parse_dmp)
    print(
        f"valid: {game.strategies.size} strategies, {game.states.size} states, "
        f"{game.outcomes.ground.size} outcomes"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordpref",
        description="Derived preference relations for games with partially ordered outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive a preference from a game and a monoid")
    p.add_argument("--dmp", required=True)
    p.add_argument("--monoid", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("anomalies", help="run the built-in anomaly corpus")
    p.set_defaults(func=cmd_anomalies)

    p = sub.add_parser("lattice", help="enumerate closed submonoids")
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--dmp")
    p.add_argument("--dot")
    p.add_argument("--generated", action="store_true")
    p.add_argument("--max-gens", type=int, default=1)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("check", help="check the preference axioms on a game")
    p.add_argument("--dmp", required=True)
    p.add_argument("--monoid", required=True)
    p.add_argument("--morphism")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("validate", help="parse and validate a game file")
    p.add_argument("--dmp", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GroundSetMismatchError, OrderValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
