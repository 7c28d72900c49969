"""Record the seed-0 reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Runs every workload's seed-0 pass once with the checkout's liouvdyn and
copies each data file into perfbench/reference/.  The references must
describe trusted code: record them only on the commit that defines the
benchmark, never on a change being measured.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run as bench_run
import workloads

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(bench_run.SRC))


def main() -> int:
    from liouvdyn.cli import main as cli_main

    from child import _invoke

    reference = Path(bench_run.HERE, "reference")
    reference.mkdir(exist_ok=True)
    work = bench_run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)
    os.chdir(work)
    for workload in workloads.WORKLOADS:
        for run in workloads.make_pass(workload, 0):
            Path("cfg", f"{run.name}.json").write_text(json.dumps(run.config_file()))
            code, messages = _invoke(cli_main, run)
            if code != 0:
                print(f"{run.name}: exit {code}: {messages}", file=sys.stderr)
                return 1
            shutil.copyfile(Path("out", f"{run.name}.csv"), reference / f"{run.name}.csv")
            print(f"recorded {run.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
