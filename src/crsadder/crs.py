"""Complementary resistive switch: two ECM cells in anti-serial connection.

The pair hangs between a word line (wl, top terminal) and a bit line
(bl, bottom terminal) with a floating middle node.  Device polarity is
wl minus bl; the top cell is oriented so that positive device voltage
dissolves its filament while growing the bottom one, and vice versa.

Logic encoding of the pair (gap below the midpoint = low-ohmic):

    ZERO  top low-ohmic,  bottom high-ohmic
    ONE   top high-ohmic, bottom low-ohmic
    ON    both low-ohmic (transient only, conducts heavily)

Both stored states put one high-ohmic cell in series, so ZERO and ONE
are indistinguishable, and harmless, to small probe voltages; reading
is done destructively by writing ONE and watching for the current spike
that appears only when the pair passes through ON (stored ZERO).

State update rule of the pair under one full-amplitude pulse pair
(wl, bl), each line carrying logic levels mapped to +V/2 and -V/2:

    Z = (wl OR NOT bl) AND Z'  OR  (wl AND NOT bl) AND NOT Z'

i.e. wl=1,bl=0 writes ONE; wl=0,bl=1 writes ZERO; equal levels hold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .ecm import (
    ConvergenceError,
    EcmState,
    march,
    solve_cell_dc,
    _triangle_sweep,
)


class IndeterminateStateError(RuntimeError):
    """Both cells high-ohmic: the pair holds no valid logic value."""


class ThresholdExtractionError(RuntimeError):
    """Sweep amplitude did not exercise all four switching thresholds."""


class CrsLogicState(enum.Enum):
    ZERO = "0"
    ONE = "1"
    ON = "on"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class CrsDeviceState:
    top: EcmState
    bottom: EcmState


@dataclass(frozen=True)
class CrsThresholds:
    """Switching landmarks of a full CRS sweep, None where not observed.

    v_th1/v_th2 bound the conducting ON window on the positive branch,
    v_th3/v_th4 the mirrored window on the negative branch (v_th4 is the
    more negative edge).
    """

    v_th1: float | None
    v_th2: float | None
    v_th3: float | None
    v_th4: float | None


def fsm_next(z, wl, bl):
    """Pair state after one full pulse pair; all arguments are 0/1 ints."""
    for name, v in (("z", z), ("wl", wl), ("bl", bl)):
        if v not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {v!r}")
    return ((wl | (1 - bl)) & z) | ((wl & (1 - bl)) & (1 - z))


def crs_state_for_bit(bit, p):
    """Fully formed device state storing the given bit."""
    if bit == 0:
        return CrsDeviceState(EcmState(p.x_min), EcmState(p.l))
    if bit == 1:
        return CrsDeviceState(EcmState(p.l), EcmState(p.x_min))
    raise ValueError(f"bit must be 0 or 1, got {bit!r}")


def classify(x_top, x_bot, gap_threshold):
    """Logic state of a gap pair, or None when both cells are high-ohmic."""
    top_low = x_top < gap_threshold
    bot_low = x_bot < gap_threshold
    if top_low and not bot_low:
        return CrsLogicState.ZERO
    if bot_low and not top_low:
        return CrsLogicState.ONE
    if top_low and bot_low:
        return CrsLogicState.ON
    return None


def decode_state(s, gap_threshold):
    """Logic state of the pair; a cell is low-ohmic iff x < gap_threshold."""
    state = classify(s.top.x, s.bottom.x, gap_threshold)
    if state is None:
        raise IndeterminateStateError(
            f"both cells high-ohmic (x_top={s.top.x:.3e}, "
            f"x_bottom={s.bottom.x:.3e})")
    return state


# ======================================================================
# voltage divider over the two cells
# ======================================================================

DIVIDER_KCL_TOL = 1e-12   # relative node-current tolerance of the divider
DIVIDER_KCL_FLOOR = 1e-300  # A; absolute floor where the relative one underflows


def solve_crs_divider(v_w, v_b, x_top, x_bot, p, vm_guess=None):
    """Middle-node voltage and branch solutions of the loaded pair.

    Cell voltages are measured from the middle node outward: the top
    cell sees v_m - v_w, the bottom v_m - v_b, which realizes the
    anti-serial orientation.  The unknown is the voltage u across the
    lower-gap (low-ohmic) cell; the other cell sees u plus the line
    difference, and v_m is the low cell's line voltage plus u.  In
    stored and half-select states v_m sits next to a line, where forming
    v_m minus that line would cancel the low cell's small drop; u keeps
    it at full precision.  The node current i_top + i_bot strictly
    increases with u and changes sign between u = 0 and u = -(line
    difference), so Newton steps on the summed cell conductances are
    taken inside that bracket, with bisection when a step leaves it.

    Returns (v_m, j_series, sol_top, sol_bot) where j_series is the
    current flowing from wl to bl (equals the bottom cell current), with
    |i_top + i_bot| <= max(DIVIDER_KCL_TOL * max(|i_top|, |i_bot|),
    DIVIDER_KCL_FLOOR); raises ConvergenceError when the bracket is
    exhausted first.
    """
    if v_w == v_b:
        sol_t = solve_cell_dc(0.0, x_top, p)
        sol_b = solve_cell_dc(0.0, x_bot, p)
        return v_w, 0.0, sol_t, sol_b
    top_low = x_top <= x_bot
    # u is the voltage across the low cell, u + diff across the far one
    if top_low:
        v_low, x_low, x_far, diff = v_w, x_top, x_bot, v_w - v_b
    else:
        v_low, x_low, x_far, diff = v_b, x_bot, x_top, v_b - v_w
    lo, hi = sorted((0.0, -diff))
    u = vm_guess - v_low if vm_guess is not None else 0.5 * (lo + hi)
    if not lo < u < hi:
        u = 0.5 * (lo + hi)
    for _ in range(100):
        s_low = solve_cell_dc(u, x_low, p)
        s_far = solve_cell_dc(u + diff, x_far, p)
        i_low, i_far = s_low.i_total, s_far.i_total
        f = i_low + i_far
        if abs(f) <= max(DIVIDER_KCL_TOL * max(abs(i_low), abs(i_far)),
                         DIVIDER_KCL_FLOOR):
            st, sb = (s_low, s_far) if top_low else (s_far, s_low)
            return v_low + u, sb.i_total, st, sb
        if f < 0.0:
            lo = u
        else:
            hi = u
        g = s_low.g_diff + s_far.g_diff
        u_new = u - f / g if g > 0.0 else math.nan
        if not lo < u_new < hi:   # also catches a non-finite step
            u_new = 0.5 * (lo + hi)
        if u_new == u:
            break
        u = u_new
    raise ConvergenceError(
        f"divider missed KCL at v_w={v_w:.6g} V, v_b={v_b:.6g} V, "
        f"x_top={x_top:.6g} m, x_bot={x_bot:.6g} m", f)


class _PairSolve:
    """The pair's divider at one applied voltage, as ecm.march's solve.

    Splits v_applied +v/2 on wl, -v/2 on bl once, warm-starts from the
    last v_m, keeps the peak |j| and solves a gap pair only when it
    differs from the last one; at(xs) is the divider's result there.
    """

    def __init__(self, v_applied, p):
        self.v_w, self.v_b, self.p = 0.5 * v_applied, -0.5 * v_applied, p
        self.peak, self.xs, self.last = 0.0, None, None

    def at(self, xs):
        if xs != self.xs:
            vm = self.last[0] if self.last else None
            self.last = solve_crs_divider(self.v_w, self.v_b, *xs, self.p,
                                          vm_guess=vm)
            self.xs = xs
            self.peak = max(self.peak, abs(self.last[1]))
        return self.last

    def __call__(self, xs):
        return self.at(xs)[2:]


def series_current(v_applied, s, p):
    """Terminal current through the pair at a given applied voltage."""
    return _PairSolve(v_applied, p).at((s.top.x, s.bottom.x))[1]


# ======================================================================
# transient of the loaded pair
# ======================================================================

CRS_MOTION_LIMIT = 0.02   # max per-substep gap motion, fraction of span
PULSE_SUBSTEPS = 200      # a pulse's substeps are at most t_pulse / this


def step_crs_transient(s, v_applied, dt, p):
    """Advance the pair by dt with v_applied split +v/2 on wl, -v/2 on bl.

    Semi-implicit scheme: the divider is re-solved at the current gaps,
    then each cell takes a backward-Euler substep at its frozen cell
    voltage.  Substeps shrink whenever either gap would move more than
    CRS_MOTION_LIMIT of the span.
    """
    x_t, x_b = march((s.top.x, s.bottom.x), _PairSolve(v_applied, p), dt,
                     p, None, CRS_MOTION_LIMIT)
    return CrsDeviceState(EcmState(x_t), EcmState(x_b))


def crs_pulse(s, v_applied, t_pulse, p, n_samples):
    """Apply one rectangular pulse; record the current waveform.

    Returns (state_after, peak_abs_current, samples); samples are
    (t, v_m, j_series, x_top, x_bottom) rows, n_samples of them spread
    evenly over the pulse.  Each gap pair is solved once: a sample row is
    the divider solve that the next interval starts from.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    solve = _PairSolve(v_applied, p)
    max_dt, sample_dt = t_pulse / PULSE_SUBSTEPS, t_pulse / n_samples
    x_t, x_b = s.top.x, s.bottom.x
    samples = []
    t = 0.0
    for _ in range(n_samples):
        x_t, x_b = march((x_t, x_b), solve, sample_dt, p, max_dt,
                         CRS_MOTION_LIMIT)
        vm, j, _, _ = solve.at((x_t, x_b))
        t += sample_dt
        samples.append((t, vm, j, x_t, x_b))
    return CrsDeviceState(EcmState(x_t), EcmState(x_b)), solve.peak, samples


# ======================================================================
# quasi-static sweep of the pair
# ======================================================================

DEFAULT_CRS_AMPLITUDE = 2.0


def sweep_iv_crs(amplitude, rate, s0, p, n_samples=1200, frac=0.5):
    """Triangular sweep 0 -> +A -> -A -> 0 of the loaded pair.

    Returns (rows, thresholds).  Each row is (v, j, x_top, x_bottom,
    label) with label the classified logic state or "indeterminate".
    Thresholds are the frac-of-peak current crossings on each branch;
    an amplitude too small to produce a conduction event on both
    branches raises ThresholdExtractionError.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in (0, 1), got {frac!r}")

    def sample(v, s):
        cls = classify(s.top.x, s.bottom.x, p.gap_midpoint())
        return (v, series_current(v, s, p), s.top.x, s.bottom.x,
                str(cls) if cls is not None else "indeterminate")

    rows = _triangle_sweep(
        amplitude, rate, s0, n_samples,
        lambda s, v, dt: step_crs_transient(s, v, dt, p), sample)
    th = _extract_thresholds(rows, frac)
    missing = [name for name in ("v_th1", "v_th2", "v_th3", "v_th4")
               if getattr(th, name) is None]
    if missing:
        raise ThresholdExtractionError(
            f"no {'/'.join(missing)} within amplitude {amplitude} V")
    return rows, th


def _extract_thresholds(rows, frac):
    pos = [(v, j, lab) for v, j, _, _, lab in rows if v > 0]
    neg = [(v, j, lab) for v, j, _, _, lab in rows if v < 0]

    def window(branch):
        # a conduction event requires the pair to actually visit ON;
        # otherwise frac-of-peak crossings of the leakage floor would
        # masquerade as thresholds
        if not any(lab == "on" for _, _, lab in branch):
            return None, None
        mags = [abs(j) for _, j, _ in branch]
        pk = max(mags)
        k_pk = mags.index(pk)
        level = frac * pk
        first = next((branch[k][0] for k, m in enumerate(mags)
                      if m >= level), None)
        last = next((branch[k][0] for k, m in enumerate(mags)
                     if k > k_pk and m < level), None)
        if first is None or last is None:
            return None, None
        return first, last
    th1, th2 = window(pos)
    th3, th4 = window(neg)
    return CrsThresholds(th1, th2, th3, th4)
