"""Compare two files of benchmark results.

    python3 perfbench/compare.py BASE NEW

Each file holds result lines (the last stdout line of ``run.py``), one
per run, for one workload and trace setting; other lines are skipped.
For every metric it prints the median and quartiles of each side and
the change of the medians.  An end-to-end metric whose median got worse
by more than its bound in BENCHMARK.json is marked REGRESSED; one whose
base spread (quartile distance over median) exceeds its bound is
marked UNRESOLVED.  Exits 1 if any metric regressed.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list:
    results = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            results.append(json.loads(line))
    if not results:
        raise SystemExit(f"{path}: no result lines")
    return results


def summary(values) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(p) for p in argv)
    spec = json.loads(SPEC_PATH.read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    print(f"{'metric':48s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} {'change':>8s}")
    for name in sorted(set(base[0]["metrics"]) | set(new[0]["metrics"])):
        b = summary([r["metrics"][name]["value"] for r in base if name in r["metrics"]])
        n = summary([r["metrics"][name]["value"] for r in new if name in r["metrics"]])
        change = n[0] / b[0] - 1.0 if b[0] else float("nan")
        note = ""
        metric = specs.get(name, {})
        if "bound" in metric:
            worse = change if metric["better"] == "lower" else -change
            if b[0] and (b[2] - b[1]) / b[0] > metric["bound"]:
                note = "UNRESOLVED"
            elif worse > metric["bound"]:
                note, regressed = "REGRESSED", True
        cells = [f"{m:.6g} [{lo:.6g}, {hi:.6g}]" for m, lo, hi in (b, n)]
        print(f"{name:48s} {cells[0]:>34s} {cells[1]:>34s} {change:>+8.1%} {note}")
    for label, results in (("base", base), ("new", new)):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        wrong = sum(not r["correct"] for r in results)
        print(f"{label}: {len(results)} runs, fail_ratio {failed / attempted:.6g} "
              f"({failed} of {attempted}), {wrong} runs with wrong outputs")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
