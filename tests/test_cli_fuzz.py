"""Seeded fuzz test of the CLI contract: for any argv drawn from the pools
below and any bytes in the game, morphism and relation files, `main`
returns 0, 1 or 2 without raising, and on exit 2 writes exactly one stderr
line, which starts with "error: "."""

from __future__ import annotations

import contextlib
import io
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from common import render_dmp, render_morphism

from ordpref import fixtures
from ordpref.cli import main


# Well-formed files that byte mutations start from.
GAME_SEEDS = [
    render_dmp(game).encode()
    for game in (
        fixtures.example1(),
        fixtures.example2(),
        fixtures.example3(),
        fixtures.example4(),
        fixtures.example4_extended(),
    )
]
MORPHISM_SEEDS = [render_morphism(*fixtures.example2_morphism()).encode()]
RELATION_SEEDS = [b"y1 y2\ny2 y1\n", b"y1 y1\ny2 y1\n", b"y1 y2\n\ny2 y3\ny3 y1\n"]

# File names, relative to the directory the commands run in.
GAME, MORPHISM, RELATION = "game.dmp", "map.mor", "gens.rel"

SPECS = [
    "pareto", "universal", "beta", "dual-beta", "beta-both",
    "reflexive", "surjective", "total",
    "dictator=y1", "dictator=", "dictator=zz",
    "filter=y1,y2", "filter=y1,,y2", "filter=",
    "atom=y1", "atom=y2", "atom=zz",
    f"idempotent={RELATION}", f"gens={RELATION}", "gens=missing.rel", "idempotent=",
    "bogus", "", "=", "pareto=x",
]
STATES = ["-2", "0", "1", "2", "3", "5", "30", "120", "1000000"]
MAX_GENS = ["-1", "0", "1", "2"]


@st.composite
def file_bytes(draw, seeds):
    """Raw bytes, or a seed file with up to three bytes replaced, inserted
    or deleted; inserted bytes favour the tokens of the file formats."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=120))
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.one_of(st.sampled_from(b" \n#:<->,y1a"), st.integers(0, 255)))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def _options(draw, pools: dict[str, list[str]]) -> list[str]:
    argv = []
    for flag, pool in pools.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(pool))]
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["validate", "derive", "check", "lattice", "anomalies"]))
    if command == "anomalies":
        return [command]
    if command == "lattice":
        argv = [command] + _options(draw, {
            "--states": STATES,
            "--max-gens": MAX_GENS,
            "--dmp": [GAME, "missing.dmp"],
            "--dot": ["lattice.dot", "missing/x.dot"],
        })
        return argv + (["--generated"] if draw(st.booleans()) else [])
    argv = [command, "--dmp", draw(st.sampled_from([GAME] * 3 + ["missing.dmp"]))]
    if command == "validate":
        return argv
    argv += ["--monoid", draw(st.sampled_from(SPECS))]
    if command == "check":
        argv += _options(draw, {"--morphism": [MORPHISM, "missing.mor"]})
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    argv=argvs(),
    game=file_bytes(GAME_SEEDS),
    morphism=file_bytes(MORPHISM_SEEDS),
    relation=file_bytes(RELATION_SEEDS),
)
def test_cli_contract(workdir, argv, game, morphism, relation):
    for name, data in ((GAME, game), (MORPHISM, morphism), (RELATION, relation)):
        (workdir / name).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
