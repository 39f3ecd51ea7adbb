#!/usr/bin/env python3
"""Deterministic call counts of the device level's solver layers and state
reads.

Rebinds ecm.evaluate_branch, ecm.solve_cell_dc, crs.solve_crs_divider,
crs.crs_pulse and crs.classify to counting wrappers in every package
module that holds them (crs and executor import some of them by name),
from outside the source, and prints the calls each layer makes in four
sections:

    calibrate      executor.calibrate_pulse on the default cell
    runs           run_device at n=2 with that pulse: pc and tc, add and
                   subtract, all 16 operand pairs (64 runs)
    wide           one tc addition at n=128 with that pulse, operand bits
                   drawn from random.Random(128)
    characterize   one default-cell characterize pass: calibrate_pulse,
                   sweep_iv_crs and sweep_iv_unit at their defaults

The last line sums calibrate and runs.  A device run holds each cell as
the rail it sits on and classifies no gaps, so the runs and wide rows
read 0 in classify; calibration classifies while it searches for the
flip and after its half-select marches, and characterize also counts
the CRS sweep's label of every row.

The counts do not depend on the machine, so two invocations print the
same table.  Run from the root of the repository:

    PYTHONPATH=src python3 scripts/work_counts.py
    PYTHONPATH=src python3 scripts/work_counts.py --runs 1
"""

import argparse
import collections
import functools
import random
import sys

from crsadder import crs, ecm, executor, microcode

LAYERS = (("ecm", "evaluate_branch"), ("ecm", "solve_cell_dc"),
          ("crs", "solve_crs_divider"), ("crs", "crs_pulse"),
          ("crs", "classify"))
MODULES = (ecm, crs, executor)


def install(counts):
    """Rebind every module attribute that is one of LAYERS' functions to a
    wrapper counting its calls under the layer's name in counts."""
    for home, name in LAYERS:
        original = getattr(sys.modules[f"crsadder.{home}"], name)

        def counted(*args, _layer=name, _f=original, **kwargs):
            counts[_layer] += 1
            return _f(*args, **kwargs)

        functools.update_wrapper(counted, original)
        for module in MODULES:
            if getattr(module, name, None) is original:
                setattr(module, name, counted)


def bits(value, n):
    return [(value >> k) & 1 for k in range(n)]


def sections(n_runs):
    """(section name, callable) in the order they are counted."""
    p = ecm.EcmParams()
    pulse = []

    def calibrate():
        pulse.append(executor.calibrate_pulse(p))

    def runs():
        kinds = [(gen, sub) for gen in (microcode.gen_pc_adder,
                                        microcode.gen_tc_adder)
                 for sub in (False, True)]
        ops = [(gen(2, subtract=sub), a, b) for gen, sub in kinds
               for a in range(4) for b in range(4)]
        for prog, a, b in ops[:n_runs]:
            executor.run_device(prog, bits(a, 2), bits(b, 2), 0,
                                pp=pulse[0], ep=p)

    def wide():
        rng = random.Random(128)
        a, b = ([rng.randint(0, 1) for _ in range(128)] for _ in range(2))
        executor.run_device(microcode.gen_tc_adder(128), a, b, 0,
                            pp=pulse[0], ep=p)

    def characterize():
        executor.calibrate_pulse(p)
        crs.sweep_iv_crs(crs.DEFAULT_CRS_AMPLITUDE, ecm.DEFAULT_SWEEP_RATE,
                         crs.crs_state_for_bit(0, p), p)
        ecm.sweep_iv_unit(ecm.DEFAULT_UNIT_AMPLITUDE, ecm.DEFAULT_SWEEP_RATE,
                          ecm.EcmState(p.l), p)

    return (("calibrate", calibrate), (f"runs ({n_runs})", runs),
            ("wide", wide), ("characterize", characterize))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=64,
                    help="count only the first N of the 64 runs (default 64)")
    args = ap.parse_args(argv)
    if not 0 <= args.runs <= 64:
        ap.error("--runs must lie in [0, 64]")
    counts = collections.Counter()
    install(counts)
    names = [name for _, name in LAYERS]
    print(f"{'section':<14}" + "".join(f"{n:>19}" for n in names))
    total = collections.Counter()
    for label, run in sections(args.runs):
        counts.clear()
        run()
        if label not in ("wide", "characterize"):
            total.update(counts)
        print(f"{label:<14}" + "".join(f"{counts[n]:>19}" for n in names))
    print(f"{'calib + runs':<14}" + "".join(f"{total[n]:>19}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
