"""Benchmark child: runs passes of one workload in-process and checks them.

run.py starts this script once per measured run, with the working
directory set to a scratch directory, ``PYTHONPATH`` pointing at the
checkout's ``src`` and the BLAS pools limited to one thread.  Every run
of a pass calls ``liouvdyn.cli.main`` with a config file, exactly as the
``liouvdyn`` command would.  Passes repeat until ``--seconds`` have
elapsed, with at least two, so every pass after the first reruns the
same configs and must reproduce the first pass's files byte for byte.
Every time is also reported at the reference speed (see
calibration.py): an untraced pass is rescaled by calibration samples
taken from a timer signal while it runs, the set-up times by
calibration blocks run around each probe.  With ``--trace 1`` one more
pass runs under the tracer and no set-up probes run; on ``open`` the
known failing case then runs once under the tracer too, outside the
counted operations.  The result is written as JSON to ``--result``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import workloads
from calibration import Calibrator, Sampler
from tracer import Tracer

MAX_PROBLEMS = 20
SETUP_SAMPLES = 5
SETUP_HALF_BLOCKS = 2
SETUP_TIMEOUT_S = 30

# A fresh interpreter up to ``import liouvdyn`` plus resolving the pass's
# configs; it prints the monotonic clock, which is shared across processes.
SETUP_PROBE = """\
import json, sys, time
import liouvdyn
from liouvdyn.config import resolve_config
for experiment, cfg in json.loads(sys.argv[1]):
    resolve_config(experiment, cfg)
print(time.monotonic())
"""


def _invoke(main, run) -> tuple:
    """Exit code and captured messages of one CLI run."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([run.experiment, "--config", f"cfg/{run.name}.json"])
    except Exception:  # a crash is one more failed run, with its traceback kept
        return -1, traceback.format_exc()
    return code, sink.getvalue()


def _outputs(run):
    return Path("out", f"{run.name}.csv"), Path("out", f"{run.name}_manifest.json")


def _setup_probe(configs: str) -> float:
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, configs],
        env=os.environ, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
    return float(probe.stdout.split()[-1]) - start


class Bench:
    def __init__(self, runs, seed: int, main):
        self.runs = runs
        self.reference = seed == 0
        self.main = main
        self.calibrator = Calibrator()
        self.walls = []  # untraced pass wall times, as measured
        self.ref_walls = []  # the same at the reference speed
        self.elapsed = 0.0  # last pass, calibration and checks included
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs
        self.failures = []  # failures the program reported itself
        self.first_digests = None
        self.output_bytes = 0

    def probe(self, action) -> tuple:
        """(seconds that ``action()`` returns, calibration block times around it)."""
        before = self.calibrator.run(SETUP_HALF_BLOCKS)
        seconds = action()
        return seconds, before + self.calibrator.run(SETUP_HALF_BLOCKS)

    def run_pass(self, sampled: bool = True) -> tuple:
        """(wall time, wall time at the reference speed) of one pass.

        The wall time is the sum of the CLI runs' times, less the time the
        calibration sampler took from them; unsampled passes have no
        reference time.
        """
        begin = time.perf_counter()
        for run in self.runs:
            for path in _outputs(run):
                path.unlink(missing_ok=True)
        results = []
        wall = 0.0
        with Sampler(self.calibrator, enabled=sampled) as sampler:
            for run in self.runs:
                spent = sampler.spent
                start = time.perf_counter()
                results.append(_invoke(self.main, run))
                wall += time.perf_counter() - start - (sampler.spent - spent)
        self._check(results)
        self.elapsed = time.perf_counter() - begin
        return wall, wall * sampler.speed() if sampled else None

    def run_known_failure(self) -> list:
        """Failures the known failing case reports; its wrong outputs are problems.

        It is no operation of the pass, so neither ``attempted`` nor
        ``failed`` counts it.
        """
        run = workloads.known_failure_run()
        Path("cfg", f"{run.name}.json").write_text(json.dumps(run.config_file(), indent=1))
        code, messages = _invoke(self.main, run)
        _, wrong, reported = checks.check_run(run, code, messages, "out", reference=False)
        self.problems.extend(f"{run.name}: {p}" for p in wrong)
        return reported

    def _check(self, results):
        digests = []
        self.output_bytes = 0
        for i, (run, (code, messages)) in enumerate(zip(self.runs, results)):
            failed, wrong, reported = checks.check_run(
                run, code, messages, "out", self.reference
            )
            files = [p for p in _outputs(run) if p.is_file()]
            digests.append([code] + [hashlib.sha256(p.read_bytes()).hexdigest() for p in files])
            self.output_bytes += sum(p.stat().st_size for p in files)
            if self.first_digests is not None and digests[i] != self.first_digests[i]:
                failed = run.operations
                wrong.append("output differs from the first pass (not deterministic)")
            self.attempted += run.operations
            self.failed += failed
            self.problems.extend(f"{run.name}: {p}" for p in wrong)
            self.failures.extend(f"{run.name}: {p}" for p in reported)
        if self.first_digests is None:
            self.first_digests = digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory holding the liouvdyn package")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import liouvdyn.cli

    src = Path(args.src).resolve()
    if not Path(liouvdyn.cli.__file__).resolve().is_relative_to(src):
        print(f"liouvdyn imported from {liouvdyn.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    runs = workloads.make_pass(args.workload, args.seed)
    Path("cfg").mkdir(exist_ok=True)
    for run in runs:
        Path("cfg", f"{run.name}.json").write_text(json.dumps(run.config_file(), indent=1))

    bench = Bench(runs, args.seed, liouvdyn.cli.main)
    # start another pass only if it is expected to end less than half a
    # pass past the deadline, so a run lasts about --seconds on average;
    # a traced run's traced pass is the second pass the first is compared to
    min_passes = 1 if args.trace else 2
    deadline = time.perf_counter() + args.seconds
    while len(bench.walls) < min_passes or time.perf_counter() + bench.elapsed / 2 < deadline:
        wall, ref_wall = bench.run_pass()
        bench.walls.append(wall)
        bench.ref_walls.append(ref_wall)

    result = {
        "walls": bench.walls,
        "ref_walls": bench.ref_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer = Tracer("liouvdyn")
        layers.install(tracer)
        try:
            traced_wall, _ = bench.run_pass(sampled=False)
            if args.workload == "open":
                result["known_failure"] = bench.run_known_failure()
        finally:
            tracer.uninstall()
        ratio = traced_wall / statistics.median(bench.walls)
        result["per_layer"] = layers.metrics(tracer, bench.output_bytes, ratio)
    else:
        configs = json.dumps([[r.experiment, r.config_file()] for r in runs])
        setups, blocks = [], []
        for _ in range(SETUP_SAMPLES):
            seconds, around = bench.probe(lambda: _setup_probe(configs))
            setups.append(seconds)
            blocks += around
        speed = bench.calibrator.speed(blocks)
        result["setups"] = setups
        result["ref_setups"] = [t * speed for t in setups]

    result.update(
        attempted=bench.attempted,
        failed=bench.failed,
        problems=list(dict.fromkeys(bench.problems))[:MAX_PROBLEMS],
        failures=list(dict.fromkeys(bench.failures))[:MAX_PROBLEMS],
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
