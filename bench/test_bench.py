"""Self-tests of the benchmark: oracle, seeded inputs, timeout, replay parity.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import filecmp
import random
import signal
import sys
import time

import pytest

import oracle
import run
import speed
import workloads

sys.path.insert(0, str(run.SRC))

from ordpref.cli import main  # noqa: E402

from replay import Tracer, replay  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _requests(workload: str, seed: int, tmp_path) -> list[run.Request]:
    specs = workloads.build(workload, seed)
    return run.prepare(specs, [oracle.verdict(s) for s in specs], 0, tmp_path)


def _small_derive(tmp_path) -> run.Request:
    rng = random.Random(7)
    game = workloads.random_game(rng, 6, 3, 8)
    spec = workloads.Spec("derive", game, ("beta",))
    return run.prepare([spec], [oracle.verdict(spec)], 0, tmp_path)[0]


def _corrupt(stdout: str, lineno: int, edit) -> str:
    lines = stdout.splitlines(keepends=True)
    lines[lineno] = edit(lines[lineno])
    return "".join(lines)


def test_oracle_fails_a_flipped_cell_a_wrong_maximal_line_and_a_wrong_code(tmp_path, alarm):
    req = _small_derive(tmp_path)
    outcome = run.run_request(lambda: main(req.argv))
    assert run.failure(req, outcome) is None
    lines = outcome.stdout.splitlines()
    maximal = next(i for i, line in enumerate(lines) if line.startswith("maximal strategies:"))

    def flip_last_cell(line: str) -> str:
        return line[:-2] + ("0" if line[-2] == "1" else "1") + "\n"

    corrupted = [
        (0, _corrupt(outcome.stdout, 2, flip_last_cell)),
        (0, _corrupt(outcome.stdout, maximal, lambda line: line.rstrip("\n") + " x9\n")),
        (1, outcome.stdout),
    ]
    failures = run.Failures()
    for code, stdout in corrupted:
        failures.add(req, run.failure(req, run.Outcome(code, stdout, "", None, 0.0)))
    assert failures.count == 3


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        dirs = [tmp_path / f"{workload}-{i}" for i in range(3)]
        for d, seed in zip(dirs, (5, 5, 6)):
            d.mkdir()
            for k, spec in enumerate(workloads.build(workload, seed)):
                workloads.materialize(spec, k, d, f"r{k}")
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        assert match == names and not mismatch and not errors
        assert filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)[1]


def test_timeout_is_recorded_as_a_failed_request(tmp_path, alarm):
    rng = random.Random(3)
    spec = workloads.Spec("derive", workloads.random_game(rng, 3, 5, 6), ("beta",))
    req = run.prepare([spec], [{}], 0, tmp_path)[0]
    outcome = run.run_request(lambda: main(req.argv), limit=0.5)
    assert outcome.error == "timeout after 0.5 s"
    assert 0.5 <= outcome.seconds < 5
    failures = run.Failures()
    failures.add(req, run.failure(req, outcome))
    assert failures.count == 1


def test_meter_leaves_its_readings_out_of_the_time_it_scales():
    def busy() -> int:
        start = time.process_time()
        while time.process_time() - start < 0.35:
            pass
        return 7

    meter = speed.Meter()
    result, took, scaled = meter.time(busy)
    assert result == 7
    assert len(meter.readings) >= 4  # before, after, and samples in between
    assert meter.spent > 0 and took + meter.spent >= 0.35
    mean = sum(meter.readings) / len(meter.readings)
    assert scaled == pytest.approx(took * speed.REFERENCE_MS * 1e-3 / mean)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_replay_matches_cli_and_oracle(workload, tmp_path, alarm):
    reqs = _requests(workload, 2, tmp_path)
    reqs.sort(key=lambda r: r.spec.game.n_strategies if r.spec.game else 0)
    kinds = {r.spec.kind for r in reqs}
    picked = [r for kind in sorted(kinds) for r in [x for x in reqs if x.spec.kind == kind][:3]]
    tracer = Tracer()
    for req in picked:
        plain = run.run_request(lambda: main(req.argv))
        traced = run.run_request(lambda: replay(req.argv, tracer))
        assert run.failure(req, plain) is None
        assert (traced.code, traced.stdout) == (plain.code, plain.stdout)
    metrics = tracer.metrics()
    assert metrics["cli.request_ms"] >= metrics["cli.self_ms"] > 0
    assert metrics["monoids.contains_calls"] >= metrics["dmp.state_preference_calls"] > 0
    assert 0 < metrics["monoids.accept_ratio"] <= 1
