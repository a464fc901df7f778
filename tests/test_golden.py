"""Golden CLI outputs: stdout and exit code of `ordpref` commands on the
fixture games, compared byte for byte.

Each golden file holds an "exit: N" line followed by the command's exact
stdout, run in a directory that holds the input files; a command that
writes to stderr adds a "stderr:" line and its exact stderr after that.
The `gens=` and `idempotent=` cases read the relation files in
RELATION_FILES, so the CLI path through `closure()` is pinned too.  Two more files pin the canonical
antichain order of the lattice module: the DOT export of the two-state
lattice and the signatures of the generated three-state monoids.  To record
them all again from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from common import render_dmp, render_morphism

from ordpref import fixtures
from ordpref.cli import main
from ordpref.lattice import enumerate_exhaustive, enumerate_generated, export_dot
from ordpref.relations import GroundSet

GOLDEN = Path(__file__).parent / "golden"

GAMES = {
    "example1": fixtures.example1(),
    "example2": fixtures.example2(),
    "example3": fixtures.example3(),
    "example4": fixtures.example4(),
    "example4x": fixtures.example4_extended(),
}


# Relation files for `--monoid gens=FILE` and `idempotent=FILE`; blank lines
# separate generators.
RELATION_FILES = {
    "swap2": "y1 y2\ny2 y1\n",
    "mixed2": "y1 y1\ny1 y2\n\ny1 y2\ny2 y1\n",
    "cycle3": "y1 y2\ny2 y3\ny3 y1\n",
    "mixed3": "y1 y2\ny1 y3\ny2 y1\ny2 y2\ny3 y2\n\ny1 y2\ny2 y3\ny3 y2\n",
    # a 3-cycle, a swap and a collapse generate every map on 3 states
    "maps3": "y1 y2\ny2 y3\ny3 y1\n\ny1 y2\ny2 y1\ny3 y3\n\ny1 y1\ny2 y1\ny3 y3\n",
    "sigma3": "y1 y1\ny2 y1\ny3 y3\n",
}
# Generator files per state count.
GENERATORS = {2: ("swap2", "mixed2"), 3: ("cycle3", "mixed3", "maps3")}


def _slug(spec: str) -> str:
    return spec.replace("=", "-").replace(",", "-").replace("{", "").replace("}", "")


def _cases() -> dict[str, list[str]]:
    """Golden name -> argv, with the "{name}" of an input file to fill in."""
    cases = {}
    for name, game in GAMES.items():
        states = game.states.labels
        specs = ["pareto", "universal", "beta", "dual-beta", "beta-both"]
        specs += [f"dictator={y}" for y in states]
        specs.append("filter=" + ",".join(states[:2]))
        specs += [f"atom={y}" for y in states]
        specs += [f"gens={{{rel}}}" for rel in GENERATORS[game.states.size]]
        for spec in specs:
            cases[f"derive-{name}-{_slug(spec)}"] = [
                "derive", "--dmp", f"{{{name}}}", "--monoid", spec,
            ]
        if game.states.size == 2:
            cases[f"lattice-{name}"] = ["lattice", "--dmp", f"{{{name}}}"]
    cases["derive-example1-idempotent-sigma3"] = [
        "derive", "--dmp", "{example1}", "--monoid", "idempotent={sigma3}",
    ]
    for spec in ("pareto", "beta", "dictator=y1", "atom=y2", "gens={swap2}", "gens={mixed2}"):
        cases[f"check-example2-morphism-{_slug(spec)}"] = [
            "check", "--dmp", "{example2}", "--monoid", spec, "--morphism", "{morphism}",
        ]
    cases["check-example3-universal"] = [
        "check", "--dmp", "{example3}", "--monoid", "universal",
    ]
    cases["lattice-states3-generated"] = [
        "lattice", "--states", "3", "--generated", "--max-gens", "1",
    ]
    cases["anomalies"] = ["anomalies"]
    # Input errors: exit 2 and one stderr line.
    cases["error-check-morphism-unknown-order-label"] = [
        "check", "--dmp", "{example2}", "--monoid", "pareto", "--morphism", "{bad_order}",
    ]
    cases["error-derive-gens-missing-file"] = [
        "derive", "--dmp", "{example1}", "--monoid", "gens=missing.rel",
    ]
    cases["error-derive-dictator-empty"] = [
        "derive", "--dmp", "{example1}", "--monoid", "dictator=",
    ]
    cases["error-derive-beta-with-argument"] = [
        "derive", "--dmp", "{example1}", "--monoid", "beta=junk",
    ]
    cases["error-derive-unknown-spec"] = [
        "derive", "--dmp", "{example1}", "--monoid", "bogus",
    ]
    cases["error-lattice-states3"] = ["lattice", "--states", "3"]
    cases["error-lattice-dmp-generated"] = ["lattice", "--dmp", "{example2}", "--generated"]
    cases["error-lattice-dmp-states3"] = ["lattice", "--dmp", "{example2}", "--states", "3"]
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


# Input name -> file name, relative to the directory the commands run in,
# since `derive` prints its monoid spec and so the path of a relation file.
INPUTS = {name: f"{name}.dmp" for name in GAMES}
INPUTS["morphism"] = "example2.mor"
INPUTS["bad_order"] = "bad-order.mor"
INPUTS.update((name, f"{name}.rel") for name in RELATION_FILES)


def _write_inputs(directory: Path) -> None:
    for name, game in GAMES.items():
        (directory / INPUTS[name]).write_text(render_dmp(game))
    mapping, target = fixtures.example2_morphism()
    morphism = render_morphism(mapping, target)
    (directory / INPUTS["morphism"]).write_text(morphism)
    # the same morphism with an unknown outcome in its order
    unknown = "order: z<" + target.ground.labels[0]
    (directory / INPUTS["bad_order"]).write_text(morphism.replace("order:", unknown, 1))
    for name, text in RELATION_FILES.items():
        (directory / INPUTS[name]).write_text(text)


def _run(argv: list[str], directory: Path) -> str:
    """The golden text of one command run in `directory`: exit line,
    captured stdout, and captured stderr if there is any."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**INPUTS) for arg in argv])
    finally:
        os.chdir(cwd)
    stderr = f"stderr:\n{err.getvalue()}" if err.getvalue() else ""
    return f"exit: {code}\n{out.getvalue()}{stderr}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    _write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, inputs):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _run(CASES[name], inputs).encode() == expected


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_lattice_text(name):
    assert PINS[name]().encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for case, argv in CASES.items():
            (GOLDEN / f"{case}.txt").write_bytes(_run(argv, Path(tmp)).encode())
    for name, text in PINS.items():
        (GOLDEN / name).write_bytes(text().encode())
    print(f"wrote {len(CASES) + len(PINS)} golden files to {GOLDEN}", file=sys.stderr)
