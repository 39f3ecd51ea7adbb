"""scripts/work_counts.py: its call counts do not depend on the run."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "work_counts.py"


def counts_table():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SCRIPT), "--runs", "1"],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


def test_two_invocations_print_identical_counts():
    first = counts_table()
    assert first == counts_table()
    lines = first.splitlines()
    assert lines[0].split() == ["section", "evaluate_branch", "solve_cell_dc",
                                "solve_crs_divider", "crs_pulse",
                                "classify"]
    (runs,) = [line for line in lines if line.startswith("runs (1)")]
    *solver, pulses, states = (int(n) for n in runs.split()[-5:])
    assert all(n > 0 for n in (*solver, pulses))
    # one march from ZERO per voltage: every pulse of a run starts on a
    # rail at +-V_w, and ONE at -v is ZERO at +v mirrored
    assert pulses <= 2
    # a device cell's state is the rail its last pulse wrote
    assert states == 0
