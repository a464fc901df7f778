"""Expected output of every benchmark request, recomputed from the table
and the order without the package under test.

A request's verdict is computed once, on indices (`verdict`), and rendered
under each pass's labels (`expected`).  The state preference of a pair is
taken row by row from up-masks: row i of rho(x1, x2) is the set of states j
with F(x1, i) <= F(x2, j).  Each canonical monoid is tested by its explicit
quantifier form on those rows; generated monoids by the minimal elements of
the product set; the two-state lattice by its member sets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

ANOMALY_SCENARIOS = 4


# -- relations as tuples of row bitmasks --------------------------------------


def compose(first: tuple[int, ...], then: tuple[int, ...]) -> tuple[int, ...]:
    """(i, k) iff some j has first(i, j) and then(j, k)."""
    out = []
    for row in first:
        acc = 0
        for j, target in enumerate(then):
            if row >> j & 1:
                acc |= target
        out.append(acc)
    return tuple(out)


def subset(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x & ~y == 0 for x, y in zip(a, b))


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def minimal(rels) -> list[tuple[int, ...]]:
    rels = set(rels)
    return sorted(r for r in rels if not any(s != r and subset(s, r) for s in rels))


def generated_antichain(n: int, gens) -> list[tuple[int, ...]]:
    """Minimal elements of the monoid of all products of `gens` (with the
    identity).  A product that contains an element already found is not
    extended: whatever it reaches contains what that element reaches."""
    found = [identity(n)]
    queue = [identity(n)]
    while queue:
        p = queue.pop()
        for g in gens:
            q = compose(p, g)
            if not any(subset(f, q) for f in found):
                found.append(q)
                queue.append(q)
    return minimal(found)


@lru_cache(maxsize=None)
def generated_count(n: int) -> int:
    """Distinct closed submonoids generated by at most one relation."""
    full = 1 << n
    seen = {(identity(n),)}
    for rows in itertools.product(range(full), repeat=n):
        seen.add(tuple(generated_antichain(n, (rows,))))
    return len(seen)


@lru_cache(maxsize=None)
def two_state_lattice() -> tuple[int, ...]:
    """Member sets of all closed submonoids on two states, as masks over
    relation ids (bit 2*i + j of an id is cell (i, j)), ordered by size and
    then by mask."""
    rels = [(r & 3, r >> 2) for r in range(16)]
    ident = rels.index(identity(2))
    comp = [[rels.index(compose(a, b)) for b in rels] for a in rels]
    families = []
    for fam in range(1 << 16):
        ids = [r for r in range(16) if fam >> r & 1]
        if not fam >> ident & 1:
            continue
        if any(subset(rels[r], rels[s]) and not fam >> s & 1 for r in ids for s in range(16)):
            continue
        if all(fam >> comp[a][b] & 1 for a in ids for b in ids):
            families.append(fam)
    return tuple(sorted(families, key=lambda f: (bin(f).count("1"), f)))


# -- games -----------------------------------------------------------------------


def up_masks(leq, table) -> list[list[int]]:
    """up[k][a]: states j with a <= F(x_k, j)."""
    return [
        [sum(1 << j for j, b in enumerate(row) if leq[a] >> b & 1) for a in range(len(leq))]
        for row in table
    ]


def member_test(monoid: tuple, n: int):
    """Membership in the named monoid, as a predicate on relation rows."""
    full = (1 << n) - 1
    kind = monoid[0]
    if kind == "pareto":
        return lambda rows: all(r >> i & 1 for i, r in enumerate(rows))
    if kind == "universal":
        return lambda rows: True
    if kind == "beta":  # every column is covered
        return lambda rows: _union(rows) == full
    if kind == "dual-beta":  # every row is non-empty
        return lambda rows: all(rows)
    if kind == "beta-both":
        return lambda rows: all(rows) and _union(rows) == full
    if kind in ("dictator", "filter"):
        base = (monoid[1],) if kind == "dictator" else monoid[1]
        return lambda rows: all(rows[y] >> y & 1 for y in base)
    if kind == "atom":
        y = monoid[1]
        return lambda rows: all(r >> i & 1 for i, r in enumerate(rows)) or all(
            r | (1 << y if i == y else 0) == full for i, r in enumerate(rows)
        )
    if kind == "gens":
        antichain = generated_antichain(n, monoid[1])
        return lambda rows: any(subset(m, rows) for m in antichain)
    raise ValueError(f"unknown monoid {monoid!r}")


def _union(rows) -> int:
    acc = 0
    for r in rows:
        acc |= r
    return acc


def derived(leq, table, accept) -> list[int]:
    """Rows of the derived preference: bit k of row i iff (x_i, x_k) holds."""
    up = up_masks(leq, table)
    out = []
    for row1 in table:
        acc = 0
        for k, up2 in enumerate(up):
            if accept(tuple(up2[a] for a in row1)):
                acc |= 1 << k
        out.append(acc)
    return out


def dominance(leq, table, strict: bool) -> list[int]:
    """Rows of (strict) Pareto domination: (x_i, x_k) iff F(x_i, y) <= F(x_k, y)
    (and differs) in every state."""
    out = []
    for row1 in table:
        acc = 0
        for k, row2 in enumerate(table):
            if all(leq[a] >> b & 1 and not (strict and a == b) for a, b in zip(row1, row2)):
                acc |= 1 << k
        out.append(acc)
    return out


def pairs(rel: list[int]) -> list[tuple[int, int]]:
    return [(i, k) for i, r in enumerate(rel) for k in range(len(rel)) if r >> k & 1]


def maximal(rel: list[int]) -> list[int]:
    return [
        x
        for x in range(len(rel))
        if not any(rel[x] >> z & 1 and not rel[z] >> x & 1 for z in range(len(rel)))
    ]


def unsuitable_pair(game, rel: list[int]) -> tuple[int, int] | None:
    """First pair of the preference that ranks a strictly dominated
    strategy at least as good as its dominator."""
    strict = dominance(game.leq, game.table, strict=True)
    for i, k in pairs(rel):
        if strict[k] >> i & 1:
            return i, k
    return None


def is_preorder(rel: list[int]) -> bool:
    reflexive = all(r >> i & 1 for i, r in enumerate(rel))
    transitive = all(rel[j] & ~rel[i] == 0 for i, j in pairs(rel))
    return reflexive and transitive


# -- verdicts --------------------------------------------------------------------


def verdict(spec) -> dict:
    """Label-free outcome of one request."""
    if spec.kind == "anomalies":
        return {}
    if spec.kind == "generated":
        return {"count": generated_count(spec.states)}
    game = spec.game
    n = game.n_states
    if spec.kind == "census":
        return {"census": census(game)}
    rel = derived(game.leq, game.table, member_test(spec.monoid, n))
    out = {"rel": rel, "maximal": maximal(rel), "unsuitable": unsuitable_pair(game, rel)}
    if spec.kind == "check":
        pareto = dominance(game.leq, game.table, strict=False)
        out["preorder"] = is_preorder(rel)
        out["pareto"] = all(p & ~r == 0 for p, r in zip(pareto, rel))
        chain = tuple(((1 << spec.chain) - 1) & ~((1 << c) - 1) for c in range(spec.chain))
        image = tuple(tuple(spec.rank[a] for a in row) for row in game.table)
        image_rel = derived(chain, image, member_test(spec.monoid, n))
        out["morphism"] = next(
            ((i, k) for i, k in pairs(rel) if not image_rel[i] >> k & 1), None
        )
    return out


def census(game) -> list[tuple[list[int], list[int]]]:
    """Distinct derived preferences over the two-state lattice, each with
    the lattice indices inducing it, in order of first index."""
    up = up_masks(game.leq, game.table)
    groups: dict[tuple, list[int]] = {}
    for idx, fam in enumerate(two_state_lattice()):
        # a two-state relation with rows (r0, r1) has id r0 | r1 << 2
        rel = tuple(
            sum(1 << k for k, up2 in enumerate(up) if fam >> (up2[f0] | up2[f1] << 2) & 1)
            for f0, f1 in game.table
        )
        groups.setdefault(rel, []).append(idx)
    return [(list(rel), idxs) for rel, idxs in groups.items()]


# -- rendering -------------------------------------------------------------------


def _pair(labels, pair) -> str:
    return repr((labels[pair[0]], labels[pair[1]]))


def render_derive(monoid_arg: str, v: dict, xs) -> str:
    rel = v["rel"]
    lines = [f"derived preference for monoid {monoid_arg}:"]
    lines.append("    " + " ".join(f"{x:>3}" for x in xs))
    for i, x in enumerate(xs):
        cells = " ".join(f"{rel[i] >> k & 1:>3}" for k in range(len(xs)))
        lines.append(f"{x:>3} {cells}")
    lines += [f"{xs[k]} >= {xs[i]}" for i, k in pairs(rel)]
    lines.append("maximal strategies: " + " ".join(xs[i] for i in v["maximal"]))
    bad = v["unsuitable"]
    lines.append(
        "suitable (never contradicts strict Pareto): "
        + ("yes" if bad is None else f"no, witness {_pair(xs, bad)}")
    )
    return "\n".join(lines) + "\n"


def render_check(v: dict, xs) -> str:
    morphism, bad = v["morphism"], v["unsuitable"]
    verdicts = [
        ("A1 preorder", v["preorder"]),
        ("A2 contains Pareto-domination", v["pareto"]),
        (
            "A3 morphism preserves preference"
            + ("" if morphism is None else f" witness {_pair(xs, morphism)}"),
            morphism is None,
        ),
        ("A5 suitable" + ("" if bad is None else f" witness {_pair(xs, bad)}"), bad is None),
    ]
    return "".join(f"[{'PASS' if ok else 'FAIL'}] {text}\n" for text, ok in verdicts)


def render_census(v: dict, xs, ys) -> str:
    lines = [
        f"{len(two_state_lattice())} closed submonoids on 2 states",
        "least: pareto",
        "greatest: universal",
        "atoms: " + " ".join(sorted(f"atom:{y}" for y in ys)),
        "dual atoms: "
        + " ".join(sorted(["beta", "dual-beta"] + [f"dictator:{y}" for y in ys])),
        f"{len(v['census'])} distinct derived preferences:",
    ]
    for pref_id, (rel, idxs) in enumerate(v["census"]):
        lines.append(f"  pref {pref_id}: " + " ".join(f"({xs[i]},{xs[k]})" for i, k in pairs(rel)))
        lines.append(f"{pref_id}\t" + ",".join(map(str, idxs)))
    return "\n".join(lines) + "\n"


def expected(spec, v: dict, labels, argv: list[str]) -> tuple[int, str | None]:
    """(exit code, stdout) the request must produce; stdout None means the
    anomaly corpus, which is checked by its verdict lines."""
    xs, ys = labels.strategies, labels.states
    if spec.kind == "anomalies":
        return 0, None
    if spec.kind == "generated":
        return 0, (
            f"{v['count']} closed submonoids generated by up to 1 relations "
            f"on {spec.states} states\n"
        )
    if spec.kind == "census":
        return 0, render_census(v, xs, ys)
    if spec.kind == "derive":
        return 0, render_derive(argv[argv.index("--monoid") + 1], v, xs)
    text = render_check(v, xs)
    return (0 if "[FAIL]" not in text else 1), text


def mismatch(spec, v: dict, labels, argv: list[str], code: int, stdout: str) -> str | None:
    """Why the output disagrees with the oracle, or None when it agrees."""
    want_code, want = expected(spec, v, labels, argv)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if want is None:
        lines = stdout.splitlines()
        passed = [line for line in lines if line.startswith("[PASS] ")]
        final = f"{ANOMALY_SCENARIOS}/{ANOMALY_SCENARIOS} scenarios passed"
        if len(passed) != ANOMALY_SCENARIOS or "FAIL" in stdout or lines[-1:] != [final]:
            return "anomaly corpus verdicts differ"
        return None
    if stdout != want:
        got_lines, want_lines = stdout.splitlines(), want.splitlines()
        for lineno, (got, exp) in enumerate(itertools.zip_longest(got_lines, want_lines), 1):
            if got != exp:
                return f"stdout line {lineno}: got {got!r}, expected {exp!r}"
        return "stdout differs in line endings"
    return None
