#!/usr/bin/env python3
"""End-to-end benchmark of the gotas CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``gotas`` from its
``src/``. One closed-loop client issues the workload's seeded requests one
at a time, in process through ``gotas.cli.main`` with stdout captured, and
checks every answer against the independent reference in ``reference.py``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics (end to end with ``--trace 0``, per layer with
``--trace 1``). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracing
from reference import Space

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"
SETUP_REPEATS = 5

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Calibration tasks: the frozen reference code on fixed inputs, doing the
# kind of set work that the workload's requests do (law scans and reports;
# for load, big spaces and their listings). Each comes with a fixed
# yardstick near its median time within runs (in seconds) on the 2-core
# x86 machine that the figures in README.md come from.
CALIBRATION_WINDOW = 21
_CAL_SPACE = inputs.base_doc(random.Random(5), 5, 4, 0.5)
_CAL_RELATION = inputs.relation_doc(random.Random(0), 10, (200, 300))
_CAL_LOAD = (
    inputs.relation_doc(random.Random(0), inputs.RELATION_SIZE, inputs.RELATION_OPENS),
    inputs.chain_doc(random.Random(0), inputs.CHAIN_SIZE),
)


def calibrate_checks() -> None:
    space = Space(_CAL_SPACE)
    for pid in checks.FALSIFIABLE:
        space.first_violation(pid)
    for a in range(0, space.full + 1, 4):
        space.report(a)
    space = Space(_CAL_RELATION)
    space.report(space.full // 3)


def calibrate_load() -> None:
    for doc in _CAL_LOAD:
        space = Space(doc)
        checks.topology_listing(space)
        space.report(space.full // 3)


CALIBRATION = {
    "sweep": (calibrate_checks, 0.0050),
    "verify": (calibrate_checks, 0.0050),
    "load": (calibrate_load, 0.0110),
}


class Clock:
    """Times work in seconds at the machine's nominal speed.

    This machine's speed drifts by up to ~40 % in phases that last minutes,
    which no run length averages out. So every timing is preceded by one
    run of the workload's calibration task, and scaled by its yardstick over
    the median of the CALIBRATION_WINDOW calibrations around it.
    """

    def __init__(self, workload: str) -> None:
        self.calibrate, self.nominal = CALIBRATION[workload]
        self.calibrations: list[float] = []
        self.timings: list[tuple[float, int]] = []  # (seconds, calibration index)

    def time(self, fn, *args):
        start = perf_counter()
        self.calibrate()
        self.calibrations.append(perf_counter() - start)
        start = perf_counter()
        result = fn(*args)
        self.timings.append((perf_counter() - start, len(self.calibrations) - 1))
        return result

    def factor(self, i: int) -> float:
        half = CALIBRATION_WINDOW // 2
        return self.nominal / statistics.median(self.calibrations[max(i - half, 0):i + half + 1])

    def scaled(self, first: int = 0) -> list[float]:
        """Timings from the ``first`` on, at nominal speed."""
        return [t * self.factor(i) for t, i in self.timings[first:]]


def load_program():
    """Import ``gotas.cli`` afresh from this checkout, with click, so that a
    repeated set-up pays the whole import again."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("gotas", "click"):
            del sys.modules[name]
    cli = importlib.import_module("gotas.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: gotas was imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, args: list[str]) -> tuple[int, str]:
    """One CLI invocation; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="gotas")
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return code, out.getvalue()


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, and
    its nearest-rank value."""
    ordered = sorted(values)
    n = len(ordered)
    pct = 100 * (n - 10) // n
    return pct, ordered[max(math.ceil(pct * n / 100), 1) - 1]


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies)[1] * 1e3,
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        rounds = inputs.make_rounds(workload, seed, inputs.rounds_for(workload, seconds))
        # A traced run times each request twice (traced and not), so it
        # takes half the rounds. The warm-up request is the same for every
        # seed, so that set-up time does not vary with the seed.
        timed = rounds[:(len(rounds) + 1) // 2] if trace else rounds
        self.requests = [req for rnd in timed for req in rnd]
        self.warmup = inputs.make_rounds(workload, -1, 1)[0][0]
        self.warmup.name = f"warmup-{self.warmup.name}"
        self.workload, self.seed, self.trace = workload, seed, trace
        self.dir = RUNS / f"{workload}-{seed}-{os.getpid()}"
        self.clock = Clock(workload)
        self.spaces: dict[str, Space] = {}
        self.errors: list[str] = []
        self.failed = 0

    def path(self, req) -> Path:
        return self.dir / req.name

    def args(self, req) -> list[str]:
        return [req.args[0], str(self.path(req)), *req.args[1:]]

    def verify(self, req, code: int, out: str) -> None:
        space = self.spaces.get(req.name)
        if space is None:
            space = self.spaces[req.name] = Space(req.doc)
        error = checks.check(req, space, code, out)
        if error:
            self.errors.append(f"{req.name} {' '.join(req.args)}: {error}")

    def call(self, cli, req, tracer=None) -> bool:
        """Time one request and check its answer; False if it raised."""
        args = self.args(req)
        try:
            if tracer is None:
                code, out = self.clock.time(invoke, cli, args)
            else:
                code, out = self.clock.time(tracer.request, lambda a: invoke(cli, a), args)
        except Exception:  # a crash inside the program is a failed request
            self.failed += 1
            traceback.print_exc()
            return False
        self.verify(req, code, out)
        return True

    def setup_once(self, paths):
        cli = load_program()
        for p in paths:
            p.read_bytes()
        return cli, invoke(cli, self.args(self.warmup))

    def setup(self):
        """Import, read the documents, answer the warm-up request; repeated,
        and the median reported."""
        paths = {self.path(req) for req in [self.warmup, *self.requests]}
        for _ in range(SETUP_REPEATS):
            cli, (code, out) = self.clock.time(self.setup_once, paths)
            self.verify(self.warmup, code, out)
        return cli, statistics.median(self.clock.scaled())

    def end_to_end(self, cli, setup_s: float) -> dict[str, float]:
        first = len(self.clock.timings)
        for req in self.requests:
            self.call(cli, req)
        latencies = self.clock.scaled(first)
        pct, tail_s = tail(latencies)
        print(f"{self.workload} seed {self.seed}: {len(latencies)} timed requests, tail = p{pct}",
              file=sys.stderr)
        raw = [t for t, _ in self.clock.timings]
        unscaled = _latency_metrics(raw[first:]) | {
            "setup_s": statistics.median(raw[:first]),
            "calibration_ms": statistics.median(self.clock.calibrations) * 1e3,
        }
        print(f"unscaled {json.dumps(unscaled)}", file=sys.stderr)
        return _latency_metrics(latencies) | {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, cli) -> dict[str, float]:
        tracer = tracing.Tracer()
        modules = cli, sys.modules["gotas.oracle"], sys.modules["gotas.approximations"]
        plain, traced = [], []  # timing indices of each pass
        for i, req in enumerate(self.requests):
            # Alternate which of the pair goes first.
            for with_trace in ((True, False) if i % 2 else (False, True)):
                if with_trace:
                    tracer.install(*modules)
                    try:
                        ok = self.call(cli, req, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    ok = self.call(cli, req)
                if ok:
                    (traced if with_trace else plain).append(len(self.clock.timings) - 1)
        factors = [self.clock.factor(self.clock.timings[i][1]) for i in traced]
        metrics = tracer.metrics(factors)
        scaled = self.clock.scaled()
        p50_plain = statistics.median(scaled[i] for i in plain)
        overhead = statistics.median(scaled[i] for i in traced) - p50_plain
        metrics["trace.overhead_ms"] = overhead * 1e3
        metrics["trace.overhead_pct"] = 100 * overhead / p50_plain
        out = RUNS / f"trace-{self.workload}-{self.seed}.json"
        out.write_text(json.dumps({"requests": [r.args for r in self.requests],
                                   "records": tracer.records}))
        return metrics

    def execute(self) -> dict:
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            for req in [self.warmup, *self.requests]:
                self.path(req).write_text(json.dumps(req.doc))
            cli, setup_s = self.setup()
            gc.collect()
            if self.trace:
                values = self.per_layer(cli)
                units = {**tracing.LAYER_METRICS, "trace.overhead_ms": "ms", "trace.overhead_pct": "%"}
            else:
                values = self.end_to_end(cli, setup_s)
                units = END_TO_END
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        for line in self.errors[:5]:
            print(f"MISMATCH {line}", file=sys.stderr)
        return {
            "correct": not self.errors,
            "attempted": len(self.requests) * (2 if self.trace else 1),
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.ROUND_LENGTH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gotas" / "cli.py").is_file():
        print(f"error: no gotas sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
