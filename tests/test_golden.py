"""Golden CLI outputs: stdout and exit code of `ordpref` commands on the
fixture games, compared byte for byte.

Each golden file holds an "exit: N" line followed by the command's exact
stdout.  Two more files pin the canonical antichain order of the lattice
module: the DOT export of the two-state lattice and the signatures of the
generated three-state monoids.  To record them all again from the current
code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ordpref import fixtures
from ordpref.cli import main
from ordpref.lattice import enumerate_exhaustive, enumerate_generated, export_dot
from ordpref.orders import strict_part
from ordpref.relations import GroundSet
from ordpref.textio import render_dmp

GOLDEN = Path(__file__).parent / "golden"

GAMES = {
    "example1": fixtures.example1(),
    "example2": fixtures.example2(),
    "example3": fixtures.example3(),
    "example4": fixtures.example4(),
    "example4x": fixtures.example4_extended(),
}


def _cases() -> dict[str, list[str]]:
    """Golden name -> argv, with "{game}" files and "{morphism}" to fill in."""
    cases = {}
    for name, game in GAMES.items():
        states = game.states.labels
        specs = ["pareto", "universal", "beta", "dual-beta", "beta-both"]
        specs += [f"dictator={y}" for y in states]
        specs.append("filter=" + ",".join(states[:2]))
        specs += [f"atom={y}" for y in states]
        for spec in specs:
            cases[f"derive-{name}-{spec.replace('=', '-').replace(',', '-')}"] = [
                "derive", "--dmp", f"{{{name}}}", "--monoid", spec,
            ]
        if game.states.size == 2:
            cases[f"lattice-{name}"] = ["lattice", "--dmp", f"{{{name}}}"]
    for spec in ("pareto", "beta", "dictator=y1", "atom=y2"):
        cases[f"check-example2-morphism-{spec.replace('=', '-')}"] = [
            "check", "--dmp", "{example2}", "--monoid", spec, "--morphism", "{morphism}",
        ]
    cases["check-example3-universal"] = [
        "check", "--dmp", "{example3}", "--monoid", "universal",
    ]
    cases["lattice-states3-generated"] = [
        "lattice", "--states", "3", "--generated", "--max-gens", "1",
    ]
    cases["anomalies"] = ["anomalies"]
    return cases


CASES = _cases()


def _y(n: int) -> GroundSet:
    return GroundSet(tuple(f"y{i + 1}" for i in range(n)))


# Pinned lattice text: file name -> function producing it.
PINS = {
    "lattice-2states.dot": lambda: export_dot(enumerate_exhaustive(_y(2))),
    "generated-3states.sig": lambda: "".join(
        m.signature() + "\n" for m in enumerate_generated(_y(3))
    ),
}


def _morphism_text() -> str:
    mapping, target = fixtures.example2_morphism()
    lines = [
        "outcomes: " + " ".join(target.ground.labels),
        "order: " + " ".join(f"{u}<{v}" for u, v in strict_part(target).pairs()),
    ]
    lines += [f"map {a} -> {b}" for a, b in mapping.items()]
    return "\n".join(lines) + "\n"


def _write_inputs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, game in GAMES.items():
        path = directory / f"{name}.dmp"
        path.write_text(render_dmp(game))
        paths[name] = str(path)
    path = directory / "example2.mor"
    path.write_text(_morphism_text())
    paths["morphism"] = str(path)
    return paths


def _run(argv: list[str], paths: dict[str, str]) -> str:
    """The golden text of one command: exit line plus captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    return f"exit: {code}\n{out.getvalue()}"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, paths):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _run(CASES[name], paths).encode() == expected


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_lattice_text(name):
    assert PINS[name]().encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _write_inputs(Path(tmp))
        for case, argv in CASES.items():
            (GOLDEN / f"{case}.txt").write_bytes(_run(argv, inputs).encode())
    for name, text in PINS.items():
        (GOLDEN / name).write_bytes(text().encode())
    print(f"wrote {len(CASES) + len(PINS)} golden files to {GOLDEN}", file=sys.stderr)
