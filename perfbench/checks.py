"""Output checks that do not trust the code under test.

Every run of a pass is checked from its exit code, its messages and the
files it wrote: the manifest's status and point errors, the row count,
invariants that hold for every seed, and, at seed 0, agreement with
reference outputs recorded from the code this benchmark was defined on.
An operation is one output row, or one trajectory for ``open``.

Two kinds of failed operations are told apart.  A failure the program
reports itself (a row flagged in ``point_errors``, or a run that stops
with ``run failed: ...`` and exit code 4) is a failed operation of a
correctly working CLI.  Anything else (a wrong or missing output, a
manifest that disagrees with its exit code, an uncaught exception) is a
wrong output, and the result is not correct.
"""

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Absolute tolerances against the reference; other columns use
# |a - b| <= REF_ATOL + REF_RTOL * |b|.
REF_TOL = {
    "F_inertial": 1e-10,
    "F_adiabatic": 1e-10,
    "neglog1mF_inertial": 1e-3,
    "phase_line": 1e-8,
    "phase_surface": 1e-8,
}
REF_ATOL = 1e-9
REF_RTOL = 1e-6

# Invariants checked on every seed.
PHASE_ZERO_TOL = 1e-8  # shipped two-spin families are real: phases vanish
LINE_SURFACE_TOL = 1e-6
TRACE_DEV_MAX = 1e-8
MIN_EIG_FLOOR = -1e-8
BLOCH_NORM_MAX = 1.0 + 1e-8

_EXIT_STATUS = {0: "ok", 3: "partial", 4: "failed"}


def read_csv(path):
    """(columns, rows) of a CLI data file, cells as floats."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        columns = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return columns, rows


def _row_problems(experiment: str, row: dict) -> list:
    if any(math.isnan(v) for v in row.values()):
        return ["unflagged NaN"]
    out = []
    if experiment in ("sweep", "single"):
        for col in ("F_inertial", "F_adiabatic"):
            if not 0.0 <= row[col] <= 1.0:
                out.append(f"{col}={row[col]!r} outside [0, 1]")
    elif experiment == "geo":
        phases = [row[c] for c in ("phase_line", "phase_surface") if c in row]
        if len(phases) == 2 and abs(phases[0] - phases[1]) > LINE_SURFACE_TOL:
            out.append(f"line {phases[0]!r} and surface {phases[1]!r} phases differ")
        if any(abs(p) > PHASE_ZERO_TOL for p in phases):
            out.append(f"phase {phases!r} nonzero on a real family")
    elif experiment == "open":
        if row["trace_dev"] > TRACE_DEV_MAX:
            out.append(f"trace_dev={row['trace_dev']!r}")
        if row["min_eig"] < MIN_EIG_FLOOR:
            out.append(f"min_eig={row['min_eig']!r}")
        norm = math.sqrt(sum(row[c] ** 2 for c in ("bloch_x", "bloch_y", "bloch_z")))
        if norm > BLOCH_NORM_MAX:
            out.append(f"Bloch norm {norm!r} > 1")
    return out


def _matches(col: str, got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    tol = REF_TOL.get(col, REF_ATOL + REF_RTOL * abs(want))
    return abs(got - want) <= tol


def check_run(run, exit_code, messages, out_dir, reference: bool) -> tuple:
    """(failed operations, wrong outputs, reported failures) of one finished run.

    The last two are lists of messages; a run with no wrong outputs is
    correct even when it reported failures.
    """
    everything = run.operations
    out_dir = Path(out_dir)
    manifest_path = out_dir / f"{run.name}_manifest.json"
    if exit_code == 4 and not manifest_path.exists():
        reported = [m for m in messages.splitlines() if m.startswith("run failed: ")]
        if reported:
            return everything, [], reported[-1:]
    if exit_code not in (0, 3, 4):
        last = messages.strip().splitlines()[-1:] or [""]
        return everything, [f"exit code {exit_code}: {last[0]}"], []
    if not manifest_path.exists():
        return everything, [f"exit code {exit_code} without a manifest"], []
    manifest = json.loads(manifest_path.read_text())
    columns, rows = read_csv(out_dir / f"{run.name}.csv")
    if manifest["status"] != _EXIT_STATUS[exit_code]:
        return everything, [f"status {manifest['status']!r} with exit code {exit_code}"], []
    errors = manifest["point_errors"]
    expected_rows = everything if run.experiment != "open" else len(rows)
    if len(rows) != expected_rows or len(errors) != len(rows) or not rows:
        return everything, [
            f"{len(rows)} rows and {len(errors)} point errors, expected {expected_rows}"
        ], []

    ref_rows = None
    if reference:
        ref_columns, ref_rows = read_csv(REFERENCE_DIR / f"{run.name}.csv")
        if ref_columns != columns or len(ref_rows) != len(rows):
            return everything, ["columns or row count differ from the reference"], []

    wrong, reported = [], []
    bad = set()
    for i, (values, error) in enumerate(zip(rows, errors)):
        if error is not None:
            bad.add(i)
            reported.append(f"row {i} flagged: {error}")
            continue
        row = dict(zip(columns, values))
        found = _row_problems(run.experiment, row)
        if ref_rows is not None:
            found += [
                f"{c}={g!r}, reference {w!r}"
                for c, g, w in zip(columns, values, ref_rows[i])
                if not _matches(c, g, w)
            ]
        if found:
            bad.add(i)
            wrong.extend(f"row {i}: {p}" for p in found)
    if run.experiment == "open":
        return (1 if bad else 0), wrong, reported
    return len(bad), wrong, reported
