"""Program execution at two fidelity levels, plus pulse calibration.

One step interpreter resolves every step to line levels and hands it,
whole, to one of two cell backends.

Behavioral backend: every cell is a one-bit state machine updated by
fsm_next with the step's resolved logic levels; reads return the stored
bit and leave the cell at ONE.

Device backend: every cell is a pair of ECM gap states.  Each step becomes
one rectangular pulse of width t_pulse; line levels map to potentials
('1' -> +V_w/2, '0' -> -V_w/2, ground -> 0) so intended writes see the
full +-V_w, holds see 0, and every other touched cell sees at most
V_w/2, which calibrated kinetics keep harmless.  Reads are destructive
current-spike detections against the i_spike threshold.  A
read-and-forward step splits its window: the read occupies the first
half, the forwarded value drives the target bitline during the second
half (the calibration margin makes half a window sufficient to switch).

Wires are ideal: line potentials reach every cell unattenuated, so cells
decouple and each advances independently under its own applied voltage.
A pulse is therefore a pure function of its inputs (the two gaps, the
voltage, the width, the sample count and the cell parameters), and a
device run computes each distinct pulse once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .crs import (
    CrsLogicState,
    crs_pulse,
    crs_state_for_bit,
    decode_state,
    fsm_next,
    step_crs_transient,
)
from .ecm import params_text
from .logic import word_to_str
from .microcode import validate_program


class ExecutionError(RuntimeError):
    """Program not executable: bad operands or unresolvable signals."""


class CalibrationError(RuntimeError):
    """No pulse parameters satisfied the select/half-select constraints."""

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


@dataclass(frozen=True)
class ReadRecord:
    step_index: int
    cell: str
    latch: str | None
    spike: bool
    bit: int
    peak_current: float | None   # None at behavioral level


@dataclass(frozen=True)
class StepRecord:
    index: int
    annotation: str
    wl_levels: dict               # "A<array>" -> level
    bl_levels: dict               # "A<array>/<bl>" -> level
    cell_states: dict             # cell addr str -> "0"/"1" after the step


@dataclass(frozen=True)
class ExecTrace:
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
        if bit not in (0, 1):
            raise ExecutionError(f"operand bits must be 0/1, got {bit!r}")
    diags = validate_program(p)
    if diags:
        raise ExecutionError("invalid program: " + "; ".join(diags))


def _resolve(sig, a_bits, b_bits, c0, registers, forwards):
    """Signal -> logic level: 0, 1 or the string 'ground'.  The program
    is validated first, so every register and forward it names is set."""
    k = sig.kind
    if k == "ground":
        return "ground"
    if k == "const0":
        return 0
    if k == "const1":
        return 1
    if k == "carry_in":
        return c0
    if k == "a":
        return a_bits[sig.index]
    if k == "b":
        return b_bits[sig.index]
    if k == "not_b":
        return 1 - b_bits[sig.index]
    if k == "reg":
        return registers[sig.name]
    return forwards[str(sig.source)]   # read_fwd


def _interpret(p, a_bits, b_bits, c0, cells):
    """Run p on a cell backend; returns (steps, reads, result_bits).

    Each step resolves once into its driven wordline levels, its bitline
    levels and the (cell, wl, bl) levels of every cell whose two lines
    differ (equal levels hold at both levels), and goes to the backend
    whole.  A step that forwards a read-out takes two half windows: the
    forwarded bitlines stay grounded while the reads happen, then carry
    the values read.
    """
    _check_operands(p, a_bits, b_bits, c0)
    c0 = 1 if p.subtract else c0
    by_line = {}
    for c in p.used_cells:
        by_line.setdefault((c.array, c.wl), {})[c.bl] = str(c)
    width = {}
    for step in p.steps:
        for d in step.drives:
            width[d.array] = max(width.get(d.array, 0), len(d.bls))
    labels = {a: [f"A{a}/{bl}" for bl in range(w)] for a, w in width.items()}
    registers = {}
    steps, reads = [], []
    for si, step in enumerate(p.steps):
        wls, wl_levels, bl_levels, pairs, pending = {}, {}, {}, [], []
        for d in step.drives:
            w = _resolve(d.wl, a_bits, b_bits, c0, registers, {})
            wls[(d.array, d.wl_index)] = wl_levels[f"A{d.array}"] = w
            on_line = by_line.get((d.array, d.wl_index), {})
            for bl, sig in enumerate(d.bls):
                label, key = labels[d.array][bl], on_line.get(bl)
                if sig.kind == "read_fwd":
                    b = "ground"   # undriven until the read lands
                    pending.append((label, sig, w, key))
                else:
                    b = _resolve(sig, a_bits, b_bits, c0, registers, {})
                bl_levels[label] = b
                if key is not None and b != w:
                    pairs.append((key, w, b))
        got = cells.step(si, step.annotation, wls, pairs,
                         [str(r.cell) for r in step.reads],
                         0 if pending else None)
        forwards = {}
        for r, (bit, spike, peak) in zip(step.reads, got):
            forwards[str(r.cell)] = bit
            if r.latch:
                registers[r.latch] = bit
            reads.append(ReadRecord(si, str(r.cell), r.latch, spike, bit, peak))
        if pending:
            held = {key for *_, key in pending}
            pairs = [c for c in pairs if c[0] not in held]
            for label, sig, w, key in pending:
                b = bl_levels[label] = _resolve(sig, a_bits, b_bits, c0,
                                                registers, forwards)
                if key is not None and b != w:
                    pairs.append((key, w, b))
            cells.step(si, step.annotation, wls, pairs, [], 1)
        steps.append(StepRecord(si, step.annotation, wl_levels, bl_levels,
                                cells.snapshot()))
    result = []
    for c in p.result_cells:
        bit, spike, peak = cells.read(str(c))
        reads.append(ReadRecord(len(p.steps), str(c), None, spike, bit, peak))
        result.append(bit)
    return tuple(steps), tuple(reads), tuple(result)


class _BitCells:
    """Behavioral backend: one bit per cell, updated by fsm_next."""

    def __init__(self, p):
        self.state = {str(c): 0 for c in p.used_cells}

    def step(self, si, annotation, wls, pairs, reads, half):
        # reads come first, so a read cell is ONE when the drive acts
        got = [self.read(key) for key in reads]
        state = self.state
        for key, w, b in pairs:
            if w != "ground" and b != "ground":   # half-selected: holds
                state[key] = fsm_next(state[key], w, b)
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

    Every used cell starts at ZERO (the init read makes the outcome
    independent of prior content).  Pulses follow one another without
    gaps, and waveform samples cover each pulse window.
    """

    def __init__(self, p, pp, ep):
        self.pp, self.ep = pp, ep
        self.pulses = {}
        self.states = {str(c): crs_state_for_bit(0, ep) for c in p.used_cells}
        on_bl = {}
        for c in p.used_cells:
            on_bl.setdefault((c.array, c.bl), []).append(str(c))
        self.wl_keys = sorted({(c.array, c.wl) for c in p.used_cells})
        self.on_bl = [on_bl[k] for k in sorted(on_bl)]
        self.columns = (("time_s", "step_index", "annotation")
                        + tuple(f"v_wl_{a}_{w}" for a, w in self.wl_keys)
                        + tuple(f"i_bl_{a}_{b}" for a, b in sorted(on_bl)))
        self.samples = []
        self.t = 0.0

    def _volts(self, level):
        if level == "ground":
            return 0.0
        return 0.5 * self.pp.v_w if level == 1 else -0.5 * self.pp.v_w

    def _pulse(self, s, v, dur, n):
        """crs_pulse(s, v, dur, ep, n_samples=n), each distinct one once."""
        key = (s.top.x, s.bottom.x, v, dur, n)
        got = self.pulses.get(key)
        if got is None:
            got = self.pulses[key] = crs_pulse(s, v, dur, self.ep,
                                               n_samples=n)
        return got

    def _verdict(self, peak):
        spike = peak > self.pp.i_spike
        return (0 if spike else 1), spike, peak

    def step(self, si, annotation, wls, pairs, reads, half):
        """Pulse the biased cells over the whole window (half=None) or its
        first (0) or second (1) half; the reads judge this pulse's peaks."""
        pp = self.pp
        dur, n, t0 = pp.t_pulse, SAMPLES_PER_PULSE, self.t
        if half is not None:
            dur, n = 0.5 * pp.t_pulse, max(2, SAMPLES_PER_PULSE // 2)
            if half:
                t0 += dur
        waves, peaks = {}, {}
        for key, w, b in pairs:
            self.states[key], peaks[key], waves[key] = self._pulse(
                self.states[key], self._volts(w) - self._volts(b), dur, n)
        v_wl = [self._volts(wls[k]) if k in wls else 0.0
                for k in self.wl_keys]
        for j in range(n):
            row = [t0 + (j + 1) * dur / n, si, annotation] + v_wl
            for keys in self.on_bl:
                i_bl = 0.0
                for key in keys:
                    if key in waves:
                        i_bl += waves[key][j][2]
                row.append(i_bl)
            self.samples.append(tuple(row))
        if half != 0:
            self.t += pp.t_pulse
        return [self._verdict(peaks.get(key, 0.0)) for key in reads]

    def read(self, key):
        """Destructive read: a full write-ONE pulse that spikes iff the
        cell held ZERO; returns (bit, spike, peak)."""
        pp = self.pp
        s, peak, _ = self._pulse(self.states[key], pp.v_w, pp.t_pulse,
                                 SAMPLES_PER_PULSE)
        if decode_state(s, self.ep.gap_midpoint()) is not CrsLogicState.ONE:
            raise ExecutionError("read did not leave the cell at ONE")
        self.states[key] = s
        return self._verdict(peak)

    def snapshot(self):
        mid = self.ep.gap_midpoint()
        return {key: str(decode_state(s, mid))
                for key, s in self.states.items()}


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
    """Time for a ZERO pair to decode as ONE under constant v_apply."""
    s = crs_state_for_bit(0, ep)
    mid = ep.gap_midpoint()
    t = 0.0
    dt = 1e-8
    while t < t_limit:
        s = step_crs_transient(s, v_apply, dt, ep)
        t += dt
        if decode_state(s, mid) is CrsLogicState.ONE:
            return t
        dt = min(dt * 1.25, t_limit / 50.0)
    return math.inf


def _half_select_drift(v_half, t_pulse, ep):
    """Worst-case decoded-state check and gap drift under half select."""
    span = ep.l - ep.x_min
    worst = 0.0
    ok = True
    mid = ep.gap_midpoint()
    for bit in (0, 1):
        for sign in (+1.0, -1.0):
            s0 = crs_state_for_bit(bit, ep)
            s1, _, _ = crs_pulse(s0, sign * v_half, t_pulse, ep, n_samples=4)
            drift = max(abs(s1.top.x - s0.top.x),
                        abs(s1.bottom.x - s0.bottom.x))
            worst = max(worst, drift / span)
            if decode_state(s1, mid) != decode_state(s0, mid):
                ok = False
    return ok, worst


def calibrate_pulse(ep, target_margin=100.0, v_seed=2.6):
    """Find (v_w, t_pulse, i_spike) satisfying the half-select contract.

    t_pulse is set to 2.5x the measured full-select switching time, so a
    half window (the read-and-forward case) still carries 1.25x margin.
    Requirements checked before accepting a candidate amplitude:
      * full select flips ZERO to ONE within t_pulse,
      * half select leaves decoded states unchanged and moves no gap by
        more than span/target_margin,
      * the spike/no-spike read peaks are separated by target_margin^2
        so the geometric-mean threshold keeps target_margin both ways.
    """
    if not 1.0 < target_margin < math.inf:
        raise ValueError(f"target_margin must be finite and exceed 1, "
                         f"got {target_margin!r}")
    if not 0.0 < v_seed < math.inf:
        raise ValueError(f"v_seed must be finite and > 0, got {v_seed!r}")
    attempts = []
    v_w = v_seed
    for _ in range(6):
        t_full = time_to_flip(v_w, ep)
        report = {"v_w": v_w, "t_full_s": t_full}
        attempts.append(report)
        if math.isinf(t_full):
            v_w += 0.2
            continue
        t_pulse = 2.5 * t_full
        ok, drift = _half_select_drift(0.5 * v_w, t_pulse, ep)
        report["t_pulse_s"] = t_pulse
        report["half_select_drift_frac"] = drift
        report["half_select_holds"] = ok
        if not ok or drift > 1.0 / target_margin:
            v_w += 0.2   # steeper kinetics: shorter pulse, less drift
            continue
        _, peak_spike, _ = crs_pulse(crs_state_for_bit(0, ep), v_w,
                                     t_pulse, ep, n_samples=8)
        _, peak_quiet, _ = crs_pulse(crs_state_for_bit(1, ep), v_w,
                                     t_pulse, ep, n_samples=8)
        report["peak_spike_a"] = peak_spike
        report["peak_quiet_a"] = peak_quiet
        if peak_quiet <= 0 or peak_spike / peak_quiet < target_margin ** 2:
            v_w += 0.2
            continue
        i_spike = math.sqrt(peak_spike * peak_quiet)
        report["i_spike_a"] = i_spike
        return PulseParams(v_w=v_w, t_pulse=t_pulse, i_spike=i_spike)
    raise CalibrationError(
        f"no amplitude in [{v_seed}, {v_w}] V satisfied the half-select "
        f"contract at margin {target_margin}", {"attempts": attempts})


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
    """Per-step cell states (behavioral bits or decoded device states)."""
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
