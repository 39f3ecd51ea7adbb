"""Command-line front end.

Commands: sweep (device I-V curves + landmark extraction), adder (run a
compiled program at either level and verify against integer arithmetic),
calibrate (pulse parameter search, cached to a sidecar), emit (program
JSON + step table), compare (cost table across schemes).

Exit codes: 0 success/verified, 1 verification mismatch, 2 usage error
(a file argument that cannot be read or written included), 3 solver or
calibration failure.

All numeric CSV output uses 17-significant-digit scientific notation so
repeated runs are byte-identical and diff-friendly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ecm
from .crs import (
    DEFAULT_CRS_AMPLITUDE,
    IndeterminateStateError,
    ThresholdExtractionError,
    crs_state_for_bit,
    sweep_iv_crs,
)
from .ecm import (
    DEFAULT_SWEEP_RATE,
    DEFAULT_UNIT_AMPLITUDE,
    ConvergenceError,
    EcmParams,
    EcmState,
    extract_unit_landmarks,
    sweep_iv_unit,
)
from .executor import (
    CalibrationError,
    ExecutionError,
    PulseParams,
    calibrate_pulse,
    params_fingerprint,
    run_behavioral,
    run_device,
    write_csv,
    write_json,
    write_states_csv,
    write_trace_csv,
    write_verdicts_json,
)
from .logic import (
    add_words_reference,
    str_to_word,
    sub_words_reference,
)
from .microcode import (
    GENERATORS,
    comparison_csv,
    comparison_markdown,
    comparison_table,
    program_to_json,
    render_step_table,
)


class UsageError(ValueError):
    pass


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def cmd_sweep(args):
    p = args.params
    landmarks = {"v_set": None, "v_reset": None, "v_th1": None,
                 "v_th2": None, "v_th3": None, "v_th4": None}
    if args.device == "unit":
        amplitude = (DEFAULT_UNIT_AMPLITUDE if args.amplitude is None
                     else args.amplitude)
        rows = sweep_iv_unit(amplitude, args.rate, EcmState(p.l), p,
                             n_samples=args.samples)
        v_set, v_reset = extract_unit_landmarks(rows, p)
        landmarks["v_set"] = v_set
        landmarks["v_reset"] = v_reset
        csv_path = _outpath(args, "unit_iv.csv")
        write_csv(csv_path, ("v_volts", "i_amps", "x_meters"), rows)
    else:
        amplitude = (DEFAULT_CRS_AMPLITUDE if args.amplitude is None
                     else args.amplitude)
        rows, th = sweep_iv_crs(amplitude, args.rate, crs_state_for_bit(0, p),
                                p, n_samples=args.samples, frac=args.frac)
        landmarks.update({"v_th1": th.v_th1, "v_th2": th.v_th2,
                          "v_th3": th.v_th3, "v_th4": th.v_th4})
        csv_path = _outpath(args, "crs_iv.csv")
        write_csv(csv_path, ("v_volts", "i_amps", "x_top_meters",
                             "x_bottom_meters", "logic_state"), rows)
    lm_path = _outpath(args, "landmarks.json")
    write_json(lm_path, landmarks)
    present = {k: v for k, v in landmarks.items() if v is not None}
    print(f"wrote {csv_path} and {lm_path}")
    print("landmarks: " + (", ".join(f"{k}={v:.4g} V"
                                     for k, v in sorted(present.items()))
                           if present else "none detected"))
    return 0


# ----------------------------------------------------------------------
# calibration (shared by the calibrate and adder commands)
# ----------------------------------------------------------------------

def _sidecar_pulse(path, fp, margin):
    """The sidecar's pulse if it was calibrated for fp at margin; None
    if it is missing, was made for other parameters or another margin,
    or does not hold a valid pulse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["params_fingerprint"] != fp or doc["target_margin"] != margin:
            return None
        return PulseParams(v_w=doc["v_w"], t_pulse=doc["t_pulse_s"],
                           i_spike=doc["i_spike_a"])
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _calibrated_pulse(args, p, reuse=True):
    """Pulse for p at args.margin: the sidecar's if it holds one for the
    same parameters and margin, else a fresh search seeded at args.v_seed
    that overwrites the sidecar."""
    fp = params_fingerprint(p)
    path = _outpath(args, f"calibration-{fp}.json")
    if reuse:
        pp = _sidecar_pulse(path, fp, args.margin)
        if pp is not None:
            return pp, path, True
    pp = calibrate_pulse(p, target_margin=args.margin, v_seed=args.v_seed)
    write_json(path, {
        "params_fingerprint": fp,
        "target_margin": args.margin,
        "v_w": pp.v_w,
        "t_pulse_s": pp.t_pulse,
        "i_spike_a": pp.i_spike,
    })
    return pp, path, False


def cmd_calibrate(args):
    p = args.params
    pp, path, cached = _calibrated_pulse(args, p, reuse=not args.force)
    print(f"{'loaded' if cached else 'wrote'} {path}")
    print(f"v_w={pp.v_w:.6g} V  t_pulse={pp.t_pulse:.6g} s  "
          f"i_spike={pp.i_spike:.6g} A")
    return 0


# ----------------------------------------------------------------------
# adder
# ----------------------------------------------------------------------

def _parse_operand(name, s):
    try:
        return str_to_word(s)
    except ValueError as e:
        raise UsageError(f"--{name}: {e}") from None


def cmd_adder(args):
    a_bits = _parse_operand("a", args.a)
    b_bits = _parse_operand("b", args.b)
    if len(a_bits) != len(b_bits):
        raise UsageError("operands must have equal width")
    n = len(a_bits)
    prog = GENERATORS[args.scheme](n, subtract=args.subtract)
    if args.level == "behavioral":
        trace = run_behavioral(prog, a_bits, b_bits, args.c0)
    else:
        pp, _, _ = _calibrated_pulse(args, args.params)
        trace = run_device(prog, a_bits, b_bits, args.c0, pp=pp,
                           ep=args.params)
        write_trace_csv(trace, _outpath(
            args, f"adder_{args.scheme}_trace.csv"))
    write_states_csv(trace, _outpath(args, f"adder_{args.scheme}_states.csv"))
    write_verdicts_json(trace, _outpath(
        args, f"adder_{args.scheme}_verdicts.json"))
    if args.subtract:
        want = sub_words_reference(a_bits, b_bits)
    else:
        want = add_words_reference(a_bits, b_bits, args.c0)
    print(f"s={trace.result_str}")
    if list(trace.result_bits) != want:
        op = "-" if args.subtract else "+"
        print(f"MISMATCH: expected s={''.join(str(b) for b in reversed(want))}"
              f" for {args.a} {op} {args.b}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# emit / compare
# ----------------------------------------------------------------------

def cmd_emit(args):
    prog = GENERATORS[args.scheme](args.n, subtract=args.subtract)
    base = f"program_{args.scheme}_n{args.n}"
    json_path = _outpath(args, base + ".json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(program_to_json(prog))
    table = render_step_table(prog)
    txt_path = _outpath(args, base + ".txt")
    with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table)
    if args.format == "json":
        print(program_to_json(prog), end="")
    else:
        print(table, end="")
    print(f"wrote {json_path} and {txt_path}", file=sys.stderr)
    return 0


def cmd_compare(args):
    if args.n_min < 1 or args.n_max < args.n_min:
        raise UsageError("need 1 <= n-min <= n-max")
    n_values = list(range(args.n_min, args.n_max + 1))
    md = comparison_markdown(n_values)
    csv = comparison_csv(n_values)
    md_path = _outpath(args, "comparison.md")
    with open(md_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(md)
    csv_path = _outpath(args, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv)
    if args.format == "csv":
        print(csv, end="")
    elif args.format == "json":
        doc = [{"n": n, **row.__dict__} for n in n_values
               for row in comparison_table(n)]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(md, end="")
    print(f"wrote {md_path} and {csv_path}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="crsadder",
        description="Simulator and microcode toolkit for in-memory adders "
                    "built on complementary resistive switches.")
    ap.add_argument("--params", metavar="FILE",
                    help="key=value cell parameter file (defaults built in)")
    ap.add_argument("--out", default=".", metavar="DIR",
                    help="output directory (default: current)")
    ap.add_argument("--format", choices=("csv", "json", "md"), default="md",
                    help="stdout format where a choice exists")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="quasi-static I-V sweep")
    sp.add_argument("--device", choices=("unit", "crs"), required=True)
    sp.add_argument("--amplitude", type=float, default=None,
                    help="triangle amplitude in V (defaults: unit 1.5, "
                         "crs 2.0)")
    sp.add_argument("--rate", type=float, default=DEFAULT_SWEEP_RATE,
                    help="sweep rate in V/s (default %(default)s)")
    sp.add_argument("--samples", type=int, default=1200)
    sp.add_argument("--frac", type=float, default=0.5,
                    help="peak fraction defining CRS thresholds")
    sp.set_defaults(func=cmd_sweep)

    aa = sub.add_parser("adder", help="compile and run an adder program")
    aa.add_argument("--scheme", choices=("pc", "tc"), required=True)
    aa.add_argument("--a", required=True, metavar="BITS",
                    help="first operand, binary, most significant first")
    aa.add_argument("--b", required=True, metavar="BITS")
    aa.add_argument("--c0", type=int, choices=(0, 1), default=0,
                    help="carry-in (ignored with --subtract)")
    aa.add_argument("--level", choices=("behavioral", "device"),
                    default="behavioral")
    aa.add_argument("--subtract", action="store_true",
                    help="compute a - b instead of a + b")
    aa.add_argument("--margin", type=float, default=100.0,
                    help="calibration safety margin (device level)")
    aa.add_argument("--v-seed", type=float, default=2.6,
                    help="starting write amplitude of a fresh calibration")
    aa.set_defaults(func=cmd_adder)

    ca = sub.add_parser("calibrate", help="search pulse parameters")
    ca.add_argument("--margin", type=float, default=100.0,
                    help="calibration safety margin; a sidecar made for "
                         "another margin is recalibrated")
    ca.add_argument("--v-seed", type=float, default=2.6,
                    help="starting write amplitude of a fresh search; a "
                         "reused sidecar ignores it (see --force)")
    ca.add_argument("--force", action="store_true",
                    help="recalibrate even if a sidecar exists")
    ca.set_defaults(func=cmd_calibrate)

    em = sub.add_parser("emit", help="emit a program as JSON + step table")
    em.add_argument("--scheme", choices=("pc", "tc"), required=True)
    em.add_argument("--n", type=int, required=True)
    em.add_argument("--subtract", action="store_true")
    em.set_defaults(func=cmd_emit)

    co = sub.add_parser("compare", help="device/cycle cost table")
    co.add_argument("--n-min", type=int, default=1)
    co.add_argument("--n-max", type=int, default=8)
    co.set_defaults(func=cmd_compare)
    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        args.params = (ecm.load_params(args.params) if args.params
                       else EcmParams())
        return args.func(args)
    except (ValueError, OSError) as e:   # UsageError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConvergenceError, CalibrationError, ExecutionError,
            IndeterminateStateError, ThresholdExtractionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
