"""Program execution at two fidelity levels, plus pulse calibration.

One step interpreter resolves every step to line levels and hands it,
whole, to one of two cell backends.

Behavioral backend: every cell is a one-bit state machine updated by
fsm_next with the step's resolved logic levels; reads return the stored
bit and leave the cell at ONE.

Device backend: every cell is a pair of ECM gaps on one of two rails,
ZERO = (x_min, l) or ONE = (l, x_min), and its state is that rail's
label.  Each step becomes one rectangular pulse of width t_pulse;
driven levels map to potentials ('1' -> +V_w/2, '0' -> -V_w/2) so
intended writes see the full +-V_w and holds see 0.  A ground line is
undriven and floats: a cell on it carries no current, so no step
half-selects a cell (calibration still checks that V_w/2 is harmless).
Reads are destructive current-spike detections against the i_spike
threshold.  A read-and-forward step splits its window: the read
occupies the first half, the forwarded value drives the target bitline
during the second half.  Calibration accepts a pulse only if the
run's two marches end on their rails after both windows, and a pulse
of a run that does not end exactly on the rail its wordline level
writes still raises ExecutionError.

Wires are ideal: line potentials reach every cell unattenuated, so cells
decouple and each advances independently under its own applied voltage.
A pulse is therefore a pure function of its start rail, voltage, width,
sample count and cell parameters, and a device run makes one march from
ZERO per voltage: a half window is the full window's first half, and
ONE at v is ZERO at -v mirrored (crs_pulse's identities).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .crs import (
    CRS_MOTION_LIMIT,
    _PairSolve,
    classify,
    crs_pulse,
    crs_state_for_bit,
    fsm_next,
)
from .ecm import march, params_text
from .logic import word_to_str


class ExecutionError(RuntimeError):
    """Program not executable: bad operands or unresolvable signals."""


class CalibrationError(RuntimeError):
    """No amplitude tried gave a pulse that switches, closes on its rails,
    leaves half select harmless and separates the read peaks; report
    holds every attempt."""

    def __init__(self, message, report):
        super().__init__(message + "\n" + json.dumps(report, indent=2,
                                                     sort_keys=True))
        self.report = report


SAMPLES_PER_PULSE = 40   # waveform samples over one device pulse window


@dataclass(frozen=True)
class PulseParams:
    v_w: float                    # full-select write amplitude, V
    t_pulse: float                # pulse width, s
    i_spike: float                # read spike detection threshold, A

    def __post_init__(self):
        if not all(0 < x < math.inf
                   for x in (self.v_w, self.t_pulse, self.i_spike)):
            raise ValueError("v_w, t_pulse and i_spike must be finite "
                             "and > 0")


class ReadRecord(NamedTuple):
    step_index: int
    cell: str
    latch: str | None
    spike: bool
    bit: int
    peak_current: float | None   # None at behavioral level


class StepRecord(NamedTuple):
    index: int
    annotation: str
    wl_levels: dict               # "A<array>" -> level
    bl_levels: dict               # "A<array>/<bl>" -> level
    cell_states: dict             # addr str -> 0/1, device "0"/"1"


class ExecTrace(NamedTuple):
    level: str                    # "behavioral" | "device"
    scheme: str
    n: int
    steps: tuple[StepRecord, ...]
    reads: tuple[ReadRecord, ...]
    result_bits: tuple[int, ...]
    samples: tuple = ()           # device level: waveform rows
    sample_columns: tuple = ()

    @property
    def result_str(self):
        return word_to_str(list(self.result_bits))


# ======================================================================
# the step interpreter (shared by both levels)
# ======================================================================

def _check_operands(p, a_bits, b_bits, c0):
    if len(a_bits) != p.n or len(b_bits) != p.n:
        raise ExecutionError(
            f"operands must be {p.n} bits, got {len(a_bits)} and {len(b_bits)}")
    for bit in (*a_bits, *b_bits, c0):
        if not isinstance(bit, int) or bit not in (0, 1):
            raise ExecutionError(f"operand bits must be 0/1, got {bit!r}")


def _interpret(p, a_bits, b_bits, c0, cells):
    """Run p on a cell backend; returns (steps, reads, result_bits).

    The program's slot table, lowered on its first run, maps every line
    to a slot of this run's level list.  Each step goes to the backend
    whole: its wordline levels, its bitline levels and the (cell, wl,
    bl) levels of every cell on two driven lines that differ (equal
    levels hold; a ground line floats).  A step that forwards a read-out
    takes two half windows: its forwarded bitlines float during the
    reads (their slots hold ground until then), then carry the values.
    """
    _check_operands(p, a_bits, b_bits, c0)
    try:
        n_slots, table = p.slot_table
    except ValueError as e:
        raise ExecutionError(f"invalid program: {e}") from None
    vals = ["ground", 0, 1, 1 if p.subtract else c0, *a_bits, *b_bits,
            *[1 - b for b in b_bits]]
    vals += ["ground"] * (n_slots - len(vals))
    steps, reads = [], []
    for si, (annotation, drives, step_reads, forwards) in enumerate(table):
        wls, wl_levels, bl_levels, pairs = {}, {}, {}, []
        for wl_key, wl_label, labels, keys, wl_slot, slots in drives:
            w = wls[wl_key] = wl_levels[wl_label] = vals[wl_slot]
            levels = [vals[i] for i in slots]
            bl_levels.update(zip(labels, levels))
            if w != "ground":
                pairs += [(key, w, b) for key, b in zip(keys, levels)
                          if b != w and b != "ground" and key is not None]
        got = cells.step(si, annotation, wls, pairs,
                         [key for key, *_ in step_reads],
                         0 if forwards else None)
        for (key, latch, reg, slot), (bit, spike, peak) in zip(step_reads, got):
            vals[slot] = bit
            if reg is not None:
                vals[reg] = bit
            reads.append(ReadRecord(si, key, latch, spike, bit, peak))
        if forwards:
            for wl_key, label, slot, key in forwards:
                w, b = wls[wl_key], vals[slot]
                bl_levels[label] = b
                if key is not None and w != "ground" and b != w:
                    pairs.append((key, w, b))
            cells.step(si, annotation, wls, pairs, [], 1)
        steps.append(StepRecord(si, annotation, wl_levels, bl_levels,
                                cells.snapshot()))
    result = []
    for c in p.result_cells:
        bit, spike, peak = cells.read(str(c))
        reads.append(ReadRecord(len(p.steps), str(c), None, spike, bit, peak))
        result.append(bit)
    return tuple(steps), tuple(reads), tuple(result)


# fsm_next tabulated: its argument checks cost more than the rule itself
_NEXT = {(z, w, b): fsm_next(z, w, b)
         for z in (0, 1) for w in (0, 1) for b in (0, 1)}


class _BitCells:
    """Behavioral backend: one bit per cell, updated by fsm_next's table."""

    def __init__(self, p):
        self.state = {str(c): 0 for c in p.used_cells}

    def step(self, si, annotation, wls, pairs, reads, half):
        # reads come first, so a read cell is ONE when the drive acts
        got = [self.read(key) for key in reads]
        state = self.state
        for key, w, b in pairs:
            state[key] = _NEXT[state[key], w, b]
        return got

    def read(self, key):
        """Destructive read: (bit, spike, peak); leaves the cell at ONE."""
        bit = self.state[key]
        self.state[key] = 1
        return bit, bit == 0, None

    def snapshot(self):
        return dict(self.state)


class _PairCells:
    """Device backend: ECM pairs advanced by crs_pulse, currents sampled.

    A cell's state is its rail, "0" or "1", and every used cell starts at
    ZERO (the init read makes the outcome independent of prior content).
    Pulses follow one another without gaps, and waveform samples cover
    each pulse window.  The pulse table holds one march from ZERO per
    voltage of this run.  Rows start from the step's wordline voltages
    and a zero per bitline, then add each pulsed cell's current.
    """

    def __init__(self, p, pp, ep):
        if SAMPLES_PER_PULSE % 2:
            raise ValueError(f"SAMPLES_PER_PULSE must be even, got "
                             f"{SAMPLES_PER_PULSE!r}")
        self.pp, self.ep = pp, ep
        self.pulses = {}
        self.rails = crs_state_for_bit(0, ep), crs_state_for_bit(1, ep)
        self.state = {str(c): "0" for c in p.used_cells}
        self.wl_keys = sorted({(c.array, c.wl) for c in p.used_cells})
        bls = sorted({(c.array, c.bl) for c in p.used_cells})
        col = {bl: k for k, bl in enumerate(bls, 3 + len(self.wl_keys))}
        self.column = {str(c): col[c.array, c.bl] for c in p.used_cells}
        self.zeros = [0.0] * len(bls)
        self.columns = (("time_s", "step_index", "annotation")
                        + tuple(f"v_wl_{a}_{w}" for a, w in self.wl_keys)
                        + tuple(f"i_bl_{a}_{b}" for a, b in bls))
        self.samples, self.t = [], 0.0

    def _volts(self, level):
        if level == "ground":
            return 0.0
        return 0.5 * self.pp.v_w if level == 1 else -0.5 * self.pp.v_w

    def _pulse(self, key, v, n):
        """(peak |j|, j per sample) of the first n samples of crs_pulse from
        cell key's rail at v (SAMPLES_PER_PULSE a full window, half that a
        half window), read from the march from ZERO at v, or at -v
        mirrored; raises ExecutionError unless it ends on the rail v writes."""
        flip = self.state[key] == "1"
        u = -v if flip else v
        rows = self.pulses.get(u)
        if rows is None:
            rows = self.pulses[u] = crs_pulse(
                self.rails[0], u, self.pp.t_pulse, self.ep,
                n_samples=SAMPLES_PER_PULSE)[2]
        last = rows[n - 1]
        if last[4:6] != self.rails[u > 0]:   # ONE at v mirrors ZERO at -v
            x_top, x_bot = (last[5], last[4]) if flip else last[4:6]
            raise ExecutionError(
                f"cell {key} missed its rail: the {v:+.6g} V pulse ended at "
                f"x_top={x_top:.6e} m, x_bottom={x_bot:.6e} m")
        self.state[key] = "1" if v > 0 else "0"
        col = 2 if flip else 3   # the current of the cell's bottom ECM
        return last[col + 4], [row[col] for row in rows[:n]]

    def _verdict(self, peak):
        spike = peak > self.pp.i_spike
        return (0 if spike else 1), spike, peak

    def step(self, si, annotation, wls, pairs, reads, half):
        """Pulse the biased cells over the whole window (half=None) or its
        first (0) or second (1) half; the reads judge this pulse's peaks."""
        pp = self.pp
        dur, n, t0 = pp.t_pulse, SAMPLES_PER_PULSE, self.t
        if half is not None:
            dur, n = 0.5 * pp.t_pulse, SAMPLES_PER_PULSE // 2
            if half:
                t0 += dur
        waves, peaks = [], {}
        for key, w, b in pairs:
            peaks[key], wave = self._pulse(
                key, self._volts(w) - self._volts(b), n)
            waves.append((self.column[key], wave))
        head = [self._volts(wls.get(k, "ground")) for k in self.wl_keys]
        for j in range(n):
            row = [t0 + (j + 1) * dur / n, si, annotation, *head, *self.zeros]
            for k, wave in waves:
                row[k] += wave[j]   # a step pulses one cell per column
            self.samples.append(tuple(row))
        if half != 0:
            self.t += pp.t_pulse
        return [self._verdict(peaks[key]) for key in reads]

    def read(self, key):
        """Destructive read: a full write-ONE pulse that spikes iff the
        cell held ZERO; returns (bit, spike, peak)."""
        return self._verdict(self._pulse(key, self.pp.v_w,
                                         SAMPLES_PER_PULSE)[0])

    def snapshot(self):
        return dict(self.state)


def run_behavioral(p, a_bits, b_bits, c0=0):
    """Execute on the one-bit state-machine array; returns an ExecTrace."""
    steps, reads, result = _interpret(p, a_bits, b_bits, c0, _BitCells(p))
    return ExecTrace("behavioral", p.scheme, p.n, steps, reads, result)


def run_device(p, a_bits, b_bits, c0=0, *, pp, ep):
    """Execute as pulse waveforms over ECM pairs; returns an ExecTrace."""
    cells = _PairCells(p, pp, ep)
    steps, reads, result = _interpret(p, a_bits, b_bits, c0, cells)
    return ExecTrace("device", p.scheme, p.n, steps, reads, result,
                     tuple(cells.samples), cells.columns)


# ======================================================================
# calibration
# ======================================================================

def time_to_flip(v_apply, ep, t_limit=10.0):
    """Time for a ZERO pair to classify as ONE under constant v_apply, on a
    geometric grid of intervals marched with one divider solve."""
    xs, solve = crs_state_for_bit(0, ep), _PairSolve(v_apply, ep)
    mid = ep.gap_midpoint()
    t = 0.0
    dt = 1e-8
    while t < t_limit:
        xs = march(xs, solve, dt, ep, CRS_MOTION_LIMIT)
        t += dt
        if classify(*xs, mid) == "1":
            return t
        dt = min(dt * 1.25, t_limit / 50.0)
    return math.inf


def _half_select_drift(v_half, t_pulse, ep):
    """(ZERO and ONE keep their state, worst gap drift as a fraction of
    the span) under +-v_half over t_pulse; ONE at v is ZERO at -v
    mirrored, so the two marches from ZERO cover both rails."""
    zero, mid = crs_state_for_bit(0, ep), ep.gap_midpoint()
    ends = [crs_pulse(zero, v, t_pulse, ep, n_samples=4)[0]
            for v in (v_half, -v_half)]
    drift = max(abs(a - b) for xs in ends for a, b in zip(xs, zero))
    return (all(classify(*xs, mid) == "0" for xs in ends),
            drift / (ep.l - ep.x_min))


def calibrate_pulse(ep, target_margin=100.0, v_seed=2.6):
    """Find (v_w, t_pulse, i_spike) satisfying the calibration contract.

    Amplitudes are tried from v_seed up in five steps of 0.2 V, then down
    from it in five more, skipping any <= 0; the first that passes is
    returned.  t_pulse is 2.5x the measured full-select switching time.
    A candidate passes when:
      * full select flips ZERO to ONE within the time_to_flip limit,
      * half select leaves ZERO and ONE in place and moves no gap by
        more than span/target_margin,
      * the two marches a device run takes, ZERO at +v_w and at -v_w
        over a full window of SAMPLES_PER_PULSE samples, end on the
        rail their voltage writes after the full window and after its
        first half; ONE at v is ZERO at -v mirrored, so this closes all
        8 rail pulses of a run (misses go in rail_misses),
      * their read peaks, ZERO at +v_w (spike) and ONE at +v_w (quiet,
        the -v_w march's top cell), are separated by target_margin^2 so
        the geometric-mean threshold keeps target_margin both ways.
    Every try is in the attempts report of the CalibrationError raised
    when none passes.
    """
    if not 1.0 < target_margin < math.inf:
        raise ValueError(f"target_margin must be finite and exceed 1, "
                         f"got {target_margin!r}")
    if not 0.0 < v_seed < math.inf:
        raise ValueError(f"v_seed must be finite and > 0, got {v_seed!r}")
    up, down = [v_seed], [v_seed]
    for _ in range(5):
        up.append(up[-1] + 0.2)   # steeper kinetics: shorter pulse, less drift
        down.append(down[-1] - 0.2)
    rails = crs_state_for_bit(0, ep), crs_state_for_bit(1, ep)
    attempts = []
    for v_w in up + [v for v in down[1:] if v > 0]:
        t_full = time_to_flip(v_w, ep)
        report = {"v_w": v_w, "t_full_s": t_full}
        attempts.append(report)
        if math.isinf(t_full):
            continue
        t_pulse = 2.5 * t_full
        ok, drift = _half_select_drift(0.5 * v_w, t_pulse, ep)
        report["t_pulse_s"] = t_pulse
        report["half_select_drift_frac"] = drift
        report["half_select_holds"] = ok
        if not ok or drift > 1.0 / target_margin:
            continue
        plus, minus = (crs_pulse(rails[0], v, t_pulse, ep,
                                 n_samples=SAMPLES_PER_PULSE)[2]
                       for v in (v_w, -v_w))
        report["rail_misses"] = misses = [
            f"ZERO at {v:+.6g} V, {window} window"
            for v, rows in ((v_w, plus), (-v_w, minus))
            for window, n in (("full", SAMPLES_PER_PULSE),
                              ("half", SAMPLES_PER_PULSE // 2))
            if rows[n - 1][4:6] != rails[v > 0]]
        peak_spike, peak_quiet = plus[-1][7], minus[-1][6]
        report["peak_spike_a"] = peak_spike
        report["peak_quiet_a"] = peak_quiet
        if misses or peak_quiet <= 0 \
                or peak_spike / peak_quiet < target_margin ** 2:
            continue
        i_spike = math.sqrt(peak_spike * peak_quiet)
        report["i_spike_a"] = i_spike
        return PulseParams(v_w=v_w, t_pulse=t_pulse, i_spike=i_spike)
    tried = [a["v_w"] for a in attempts]
    raise CalibrationError(
        f"no amplitude in [{min(tried):.6g}, {max(tried):.6g}] V satisfied "
        f"the calibration contract at margin {target_margin}",
        {"attempts": attempts})


# ======================================================================
# trace artifacts
# ======================================================================

def _fmt(x):
    return f"{x:.16e}" if isinstance(x, float) else str(x)


def write_csv(path, columns, rows):
    """Header line, then one line per row; floats in 17-digit notation."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_trace_csv(trace, path):
    """Device waveforms: one row per sample instant."""
    write_csv(path, trace.sample_columns, trace.samples)


def write_states_csv(trace, path):
    """Per-step cell states (behavioral bits or device rail labels)."""
    cells = sorted(trace.steps[0].cell_states) if trace.steps else []
    write_csv(path, ["step_index", "annotation", *cells],
              ([rec.index, rec.annotation, *(rec.cell_states[c] for c in cells)]
               for rec in trace.steps))


def write_verdicts_json(trace, path):
    write_json(path, [{"step": r.step_index, "cell": r.cell, "latch": r.latch,
                       "spike": r.spike, "bit": r.bit,
                       "peak_current_a": r.peak_current}
                      for r in trace.reads])


def params_fingerprint(ep):
    """Stable hash of a parameter set, for calibration sidecar naming."""
    return hashlib.sha256(params_text(ep).encode("utf-8")).hexdigest()[:12]
