"""Benchmark of the `ordpref` command.

    python3 bench/run.py --workload derive-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
`src/`.  One client sends the workload's requests in a closed loop: each
request starts when the previous one has finished, in this process, through
`ordpref.cli.main(argv)` with stdout captured.  The request list is
repeated in passes, each under fresh labels, as many as fit in `--seconds`
of request time and at least MIN_PASSES; every output is checked against the
benchmark's own oracle as soon as it has been timed.  The host's speed
switches within seconds, so each request is timed against a reference
loop and scaled to the reference speed (speed.py); its latency is the
median of its passes.  A request that runs past REQUEST_LIMIT_S
is stopped by SIGALRM and counts as failed with a timeout marker.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the list once
through `cli.main` and once as a traced replay (see replay.py), checks that
both print the same bytes, reports the per-layer metrics and writes the
spans to .bench_out/.  `--workload all` runs every workload in its own
process and prints their metrics.

Every line but the last is a human-readable summary; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import oracle
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REQUEST_LIMIT_S = 20.0
SETUP_LAUNCHES = 31
WARMUP_REQUESTS = 5
MIN_PASSES = 3

UNITS = {
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
# error_rate is printed in the summary; the JSON carries it as failed/attempted.
END_TO_END = ("request_ms_p50", "request_ms_p90", "requests_per_s", "setup_s", "peak_rss_mb")


class RequestTimeout(BaseException):
    """Raised by SIGALRM in a request that ran past its limit; a
    BaseException so that no handler in the package can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


@dataclass
class Request:
    spec: workloads.Spec
    verdict: dict
    argv: list[str]
    labels: workloads.Labels


def run_request(call, limit: float = REQUEST_LIMIT_S) -> Outcome:
    """Run `call()` with stdout and stderr captured and a wall-clock limit."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with redirect_stdout(out), redirect_stderr(err):
                code = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        error = f"timeout after {limit:g} s"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    return Outcome(code, out.getvalue(), err.getvalue(), error, time.perf_counter() - start)


def failure(req: Request, outcome: Outcome) -> str | None:
    if outcome.error:
        return outcome.error
    return oracle.mismatch(req.spec, req.verdict, req.labels, req.argv, outcome.code, outcome.stdout)


def prepare(specs, verdicts, first_serial: int, workdir: Path) -> list[Request]:
    reqs = []
    for k, (spec, verdict) in enumerate(zip(specs, verdicts)):
        argv, labels = workloads.materialize(spec, first_serial + k, workdir, f"r{k}")
        reqs.append(Request(spec, verdict, argv, labels))
    return reqs


def run_pass(reqs: list[Request], call) -> tuple[list[Outcome], float]:
    """Run the requests back to back; returns outcomes and loop wall time."""
    gc.collect()
    start = time.perf_counter()
    outcomes = [run_request(partial(call, r.argv)) for r in reqs]
    return outcomes, time.perf_counter() - start


class Failures:
    def __init__(self) -> None:
        self.count = 0

    def add(self, req: Request, why: str | None) -> None:
        if why is None:
            return
        self.count += 1
        if self.count <= 5:
            print(f"FAILED {' '.join(req.argv)}: {why}", file=sys.stderr)


def setup_seconds(game: workloads.Game, workdir: Path) -> float:
    """Median wall time, at the reference speed, of a fresh interpreter
    validating the workload's first game through `python -m ordpref.cli`."""
    path = workdir / "setup.dmp"
    labels = workloads.labels_for(workloads.Spec("derive", game), 0)
    path.write_text(workloads.render_game(game, labels))
    want = (
        f"valid: {game.n_strategies} strategies, {game.n_states} states, "
        f"{game.n_outcomes} outcomes\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "ordpref.cli", "validate", "--dmp", str(path)]
    launch = partial(subprocess.run, argv, env=env, cwd=ROOT, capture_output=True, text=True,
                     timeout=60)
    meter = speed.Meter()
    times = []
    for _ in range(SETUP_LAUNCHES):
        proc, _, scaled = meter.time(launch)
        times.append(scaled)
        if proc.returncode != 0 or proc.stdout != want:
            raise RuntimeError(f"validate failed: {proc.stdout!r} {proc.stderr!r}")
    return statistics.median(times)


def timed_run(specs, verdicts, seconds: float, workdir: Path, failures: Failures) -> dict:
    """At least MIN_PASSES passes over the request list, and as many as fit
    in `seconds` of request time; each output is checked as soon as
    it is timed.  The latency of a request is the median of its passes, each
    scaled to the reference speed (see speed.py)."""
    from ordpref.cli import main

    first_game = next(s.game for s in specs if s.game is not None)
    setup = setup_seconds(first_game, workdir)
    run_pass(prepare(specs[:WARMUP_REQUESTS], verdicts, 0, workdir), main)
    meter = speed.Meter()
    samples: list[list[float]] = [[] for _ in specs]
    loop_wall, pass_wall, attempted, completed, passes = 0.0, 0.0, 0, 0, 0
    while passes < MIN_PASSES or loop_wall + pass_wall <= seconds:
        passes += 1
        pass_start = loop_wall
        reqs = prepare(specs, verdicts, passes * len(specs), workdir)
        gc.collect()
        for k, req in enumerate(reqs):
            outcome, took, scaled = meter.time(partial(run_request, partial(main, req.argv)))
            loop_wall += took
            samples[k].append(scaled)
            attempted += 1
            completed += outcome.error is None
            failures.add(req, failure(req, outcome))
        pass_wall = loop_wall - pass_start
    latency = [statistics.median(s) for s in samples]
    p90 = statistics.quantiles(latency, n=10)[-1]
    print(f"{len(latency)} requests x {passes} passes, {sum(t > p90 for t in latency)} beyond "
          f"p90, {loop_wall:.1f} s of request time")
    return {
        "request_ms_p50": statistics.median(latency) * 1e3,
        "request_ms_p90": p90 * 1e3,
        "requests_per_s": completed / passes / sum(latency),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
    }


def traced_run(specs, verdicts, workdir: Path, spans_path: Path, failures: Failures) -> dict:
    from ordpref.cli import main

    from replay import Tracer, replay

    run_pass(prepare(specs[:WARMUP_REQUESTS], verdicts, 0, workdir), main)
    reqs = prepare(specs, verdicts, len(specs), workdir)
    plain, plain_wall = run_pass(reqs, main)
    tracer = Tracer()
    gc.collect()
    start = time.perf_counter()
    traced = []
    for k, req in enumerate(reqs):
        tracer.request = k
        traced.append(run_request(partial(replay, req.argv, tracer)))
    traced_wall = time.perf_counter() - start
    for req, a, b in zip(reqs, plain, traced):
        failures.add(req, failure(req, a))
        parity = (a.code, a.stdout) == (b.code, b.stdout)
        failures.add(req, b.error or (None if parity else "traced replay differs from cli.main"))
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["attempted"] = 2 * len(reqs)
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(args) -> int:
    specs = workloads.build(args.workload, args.seed)
    verdicts = [oracle.verdict(spec) for spec in specs]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    failures = Failures()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = traced_run(specs, verdicts, workdir, spans, failures)
        else:
            values = timed_run(specs, verdicts, args.seconds, workdir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = values.pop("attempted")
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values["error_rate"] = failures.count / attempted
        for name, v in values.items():
            print(f"{args.workload} {name} {v:.6g} {UNITS[name]}")
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    result = {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        for line in lines[:-1]:
            print(line)
        ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "ordpref" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
