"""liouvdyn benchmark: one workload measured end to end, or traced per layer.

Run from anywhere inside a checkout that holds ``src/liouvdyn``:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

The workload runs in one single-threaded child process (child.py) that
calls ``liouvdyn.cli.main`` in-process and checks every output.  With
``--trace 0`` the last stdout line reports setup_s, wall_ref_s and
peak_rss_mb; with ``--trace 1`` it reports the per-layer metrics of a
traced pass.  ``--workload all`` runs every workload in turn.  See
README.md in this directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; the result line as a dict."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    child = subprocess.run(
        [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--src", str(SRC), "--result", str(result_path),
        ],
        cwd=work, env=_env(), timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {child.returncode}")
    out = json.loads(result_path.read_text())
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in out["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    if "known_failure" in out:
        outcome = "; ".join(out["known_failure"]) or "completed"
        print(f"known failing case, not counted: {outcome}", file=sys.stderr)

    if trace:
        metrics = out["per_layer"]
        raw = {}
    else:
        metrics = {
            "setup_s": (statistics.median(out["ref_setups"]), "s"),
            "wall_ref_s": (statistics.median(out["ref_walls"]), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
        raw = {"setup_s": out["setups"], "wall_s": out["walls"]}
    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {workload}, seed {seed}: {len(out['walls'])} untraced passes, "
          f"{attempted} operations")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for name, values in raw.items():
        print(f"  {name + ' as measured':48s} {statistics.median(values):>14.6g} s")
    print(f"  {'fail_ratio':48s} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    return {
        "correct": not out["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="liouvdyn benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liouvdyn" / "cli.py").is_file():
        print(f"no liouvdyn sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(measure(name, args.seed, args.seconds, args.trace)), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
