"""Replay of recorded CRS divider inputs.

``divider_inputs.csv`` holds every fifth ``solve_crs_divider`` call, in
call order, of one device-level tc adder run at n=1 (a=1, b=1, carry-in
0, default cell, pulse calibrated on it), half-select and near-rail
cases included.
Replaying the same inputs gives a divider before/after on identical work.

Regenerate the file from the repository root with

    python3 perfbench/divider.py --record
"""

from __future__ import annotations

import csv
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "divider_inputs.csv")
COLUMNS = ("v_w", "v_b", "x_top", "x_bot", "vm_guess")
RECORD_OPERANDS = ([1], [1])
RECORD_STRIDE = 5


def load_inputs(path=DATA):
    """List of (v_w, v_b, x_top, x_bot, vm_guess or None) tuples."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if tuple(rows[0]) != COLUMNS:
        raise ValueError(f"{path}: expected header {','.join(COLUMNS)}")
    return [(float(v_w), float(v_b), float(x_t), float(x_b),
             float(g) if g else None) for v_w, v_b, x_t, x_b, g in rows[1:]]


def replay(crs, params, inputs):
    """One pass of the inputs through crs.solve_crs_divider."""
    for v_w, v_b, x_t, x_b, g in inputs:
        crs.solve_crs_divider(v_w, v_b, x_t, x_b, params, vm_guess=g)


def replay_timing(crs, params, inputs, repeats=5):
    """Median over passes of the host microseconds per divider call."""
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        replay(crs, params, inputs)
        per_call.append((time.perf_counter() - t0) / len(inputs) * 1e6)
    return statistics.median(per_call), repeats


def record(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from crsadder import crs, executor
    from crsadder.ecm import EcmParams
    from crsadder.microcode import gen_tc_adder

    ep = EcmParams()
    pp = executor.calibrate_pulse(ep)
    original = crs.solve_crs_divider
    seen = []

    def recording(v_w, v_b, x_top, x_bot, p, vm_guess=None):
        seen.append((v_w, v_b, x_top, x_bot, vm_guess))
        return original(v_w, v_b, x_top, x_bot, p, vm_guess=vm_guess)

    crs.solve_crs_divider = recording
    try:
        a, b = RECORD_OPERANDS
        executor.run_device(gen_tc_adder(1), a, b, 0, pp=pp, ep=ep)
    finally:
        crs.solve_crs_divider = original
    with open(DATA, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"# every {RECORD_STRIDE}th solve_crs_divider input of one device "
                 f"tc n=1 run, a={a} b={b} c0=0, default EcmParams, "
                 f"calibrated pulse\n")
        fh.write(",".join(COLUMNS) + "\n")
        for row in seen[::RECORD_STRIDE]:
            fh.write(",".join("" if x is None else repr(x) for x in row) + "\n")
    print(f"wrote {len(seen[::RECORD_STRIDE])} of {len(seen)} divider inputs "
          f"to {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/divider.py --record")
    record(os.path.dirname(HERE))
