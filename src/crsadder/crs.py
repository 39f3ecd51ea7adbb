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

import math
from dataclasses import dataclass

from .ecm import (
    KVL_TOL,
    CellSolution,
    ConvergenceError,
    cell_constants,
    eta_step,
    evaluate_branch,
    march,
    _triangle_sweep,
)


class ThresholdExtractionError(RuntimeError):
    """Sweep amplitude did not exercise all four switching thresholds."""


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
    """Gaps (x_top, x_bottom) of a fully formed pair storing the given bit."""
    if bit == 0:
        return p.x_min, p.l
    if bit == 1:
        return p.l, p.x_min
    raise ValueError(f"bit must be 0 or 1, got {bit!r}")


def classify(x_top, x_bot, gap_threshold):
    """Logic state of a gap pair, "0", "1" or "on", or None when both
    cells are high-ohmic; a cell is low-ohmic iff x < gap_threshold."""
    top_low = x_top < gap_threshold
    bot_low = x_bot < gap_threshold
    if top_low and not bot_low:
        return "0"
    if bot_low and not top_low:
        return "1"
    if top_low and bot_low:
        return "on"
    return None


# ======================================================================
# voltage divider over the two cells
# ======================================================================

DIVIDER_KCL_TOL = 1e-12   # relative node-current tolerance of the divider
DIVIDER_KCL_FLOOR = 1e-300  # A; absolute floor where the relative one underflows


def solve_crs_divider(v_w, v_b, x_top, x_bot, p, vm_guess=None,
                      eta_guess=None):
    """Middle-node voltage and branch solutions of the loaded pair.

    The top cell sees v_m - v_w, the bottom v_m - v_b (anti-serial).  One
    damped Newton in the eta1 of the lower-gap (low; on a tie, the one on
    the higher line) and the other (far) cell drives the loop KVL V_far -
    V_low - (low line - far line) and the node KCL I_low + I_far; its 2x2
    Jacobian is analytic, with a negative determinant.  v_m is the low
    line plus V_low, exact next to a line.  Each eta1 starts from its
    entry of eta_guess = (eta1 top, eta1 bottom) when that lies inside
    its bracket, else at half its cell voltage, from vm_guess when that
    lies between the lines, else from v_m at the low line; it moves by
    ecm.eta_step inside its bracket.

    Returns (v_m, j_series, sol_top, sol_bot), j_series the bottom cell
    current (wl to bl), with |i_top + i_bot| <= max(DIVIDER_KCL_TOL *
    max(|i_top|, |i_bot|), DIVIDER_KCL_FLOOR) and the loop residual, the
    far cell's kvl_residual, within max(KVL_TOL * |v_w - v_b|, 1e-300);
    raises ConvergenceError when 100 iterations miss either.  The mirror
    pair, gaps and lines swapped, runs the same float operations and
    returns the same v_m with sol_top and sol_bot swapped.
    """
    top_low = x_top < x_bot or (x_top == x_bot and v_w >= v_b)
    if top_low:
        v_low, x_low, x_far, diff = v_w, x_top, x_bot, v_w - v_b
    else:
        v_low, x_low, x_far, diff = v_b, x_bot, x_top, v_b - v_w
    s = 1 if diff > 0 else -1   # the low cell sees u in [0, -diff]
    u = vm_guess - v_low if vm_guess is not None else math.nan
    if not min(0.0, -diff) < u < max(0.0, -diff):
        u = 0.0   # the far cell, the larger gap, takes the whole difference
    g = eta_guess or (math.nan, math.nan)   # (top, bottom)
    cells = []
    for x, sign, v, guess in ((x_low, -s, u, g[not top_low]),
                              (x_far, s, u + diff, g[top_low])):
        # |diff| >= |v_cell| >= |i_ion| * (R_ion + R_ser) bounds |eta1|.
        # The seed v / 2, a lone cell's cold start, may lie past the bound
        # and leaves the float range from v = 73.4 V
        r_ion, r_fil, r_ser, g_tu = cell_constants(x, p)
        beta = p._beta_a if sign > 0 else p._beta_c
        cap = sign * min(abs(diff), math.log1p(
            abs(diff) / (p._j0a * (r_ion + r_ser))) / beta)
        lo, hi = sorted((0.0, cap))
        cells.append((guess if lo < guess < hi else 0.5 * v, lo, hi,
                       r_ion, r_fil, r_ser, g_tu))
    (e_l, lo_l, hi_l, ri_l, rf_l, rs_l, g_tl), (
        e_f, lo_f, hi_f, ri_f, rf_f, rs_f, g_tf) = cells
    kvl_tol = max(KVL_TOL * abs(diff), 1e-300)
    for _ in range(100):
        try:
            b_l = evaluate_branch(e_l, -s, ri_l, g_tl, p)
            b_f = evaluate_branch(e_f, s, ri_f, g_tf, p)
        except OverflowError:   # only the seeds can leave the float range
            raise ConvergenceError(
                f"DC solve overflowed at v_w={v_w:.6g} V, v_b={v_b:.6g} V, "
                f"x_top={x_top:.6g} m, x_bot={x_bot:.6g} m",
                math.inf) from None
        i_l, i_f = b_l[3], b_f[3]
        v_l, v_f = b_l[2] + i_l * rs_l, b_f[2] + i_f * rs_f
        f1, f2 = v_f - v_l - diff, i_l + i_f
        a_l, a_f = b_l[4] + b_l[5] * rs_l, b_f[4] + b_f[5] * rs_f  # dV/deta1
        if abs(f1) <= kvl_tol and abs(f2) <= max(
                DIVIDER_KCL_TOL * max(abs(i_l), abs(i_f)), DIVIDER_KCL_FLOOR):
            s_l = CellSolution(v_l, x_low, e_l, b_l[1], b_l[2], b_l[0],
                               g_tl * b_l[2], i_l, ri_l, rf_l, 0.0,
                               b_l[5] / a_l)
            s_f = CellSolution(v_l + diff, x_far, e_f, b_f[1], b_f[2], b_f[0],
                               g_tf * b_f[2], i_f, ri_f, rf_f, -f1,
                               b_f[5] / a_f)
            st, sb = (s_l, s_f) if top_low else (s_f, s_l)
            return v_low + v_l, sb.i_total, st, sb
        # the cells' tangent I-V lines meet KCL with the low cell moved by
        # dv and the far one by dv - f1
        g_l, g_f = b_l[5] / a_l, b_f[5] / a_f
        dv = (g_f * f1 - f2) / (g_l + g_f)
        new_l = eta_step(e_l, dv, a_l, -s, lo_l, hi_l, p)
        new_f = eta_step(e_f, dv - f1, a_f, s, lo_f, hi_f, p)
        if new_l == e_l and new_f == e_f:
            break
        e_l, e_f = new_l, new_f
    raise ConvergenceError(
        f"divider missed its tolerance at v_w={v_w:.6g} V, v_b={v_b:.6g} V, "
        f"x_top={x_top:.6g} m, x_bot={x_bot:.6g} m (loop residual "
        f"{f1:.3e} V)", f2)


class _PairSolve:
    """The pair's divider at one applied voltage, as ecm.march's solve.

    Splits v_applied +v/2 on wl, -v/2 on bl once, warm-starts from the
    last v_m and eta1 pair, keeps each cell's peak |i| as peaks = (top,
    bottom) and solves a gap pair only when it differs from the last one;
    at(xs) is the divider's result there.
    """

    def __init__(self, v_applied, p):
        self.v_w, self.v_b, self.p = 0.5 * v_applied, -0.5 * v_applied, p
        self.peaks, self.xs, self.last, self.guess = (0.0, 0.0), None, None, {}

    def at(self, xs):
        if xs != self.xs:
            self.last = vm, _, st, sb = solve_crs_divider(
                self.v_w, self.v_b, *xs, self.p, **self.guess)
            self.guess = {"vm_guess": vm, "eta_guess": (st.eta1, sb.eta1)}
            self.xs = xs
            self.peaks = (max(self.peaks[0], abs(st.i_total)),
                          max(self.peaks[1], abs(sb.i_total)))
        return self.last

    def __call__(self, xs):
        return self.at(xs)[2:]


# ======================================================================
# transient of the loaded pair
# ======================================================================

CRS_MOTION_LIMIT = 0.02   # max per-substep gap motion, fraction of span


def crs_pulse(xs, v_applied, t_pulse, p, n_samples):
    """Apply one rectangular pulse, v_applied split +v/2 on wl, -v/2 on
    bl, to the gaps xs = (x_top, x_bottom); record the current waveform.

    Returns (gaps_after, peak_abs_current, samples); samples are (t, v_m,
    i_top, i_bottom, x_top, x_bottom, peak_top, peak_bottom) rows,
    n_samples of them spread evenly over the pulse, with each cell's
    current and its peak |i| so far.  i_bottom is the series current, wl
    to bl, and peak_abs_current its peak.  Each gap pair is solved once:
    a sample row is the divider solve that the next interval starts from.
    Two identities hold bit for bit: the first n rows of a pulse at 2n
    samples are the pulse at half the width and n samples, and the pulse
    from (x_bottom, x_top) at -v_applied is this one with each top and
    bottom column swapped (solve_crs_divider's mirror).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    solve = _PairSolve(v_applied, p)
    sample_dt = t_pulse / n_samples
    samples = []
    t = 0.0
    for _ in range(n_samples):
        xs = march(xs, solve, sample_dt, p, CRS_MOTION_LIMIT)
        vm, _, st, sb = solve.at(xs)
        t += sample_dt
        samples.append((t, vm, st.i_total, sb.i_total, *xs, *solve.peaks))
    return xs, solve.peaks[1], samples


# ======================================================================
# quasi-static sweep of the pair
# ======================================================================

DEFAULT_CRS_AMPLITUDE = 2.0


def sweep_iv_crs(amplitude, rate, s0, p, n_samples=1200, frac=0.5):
    """Triangular sweep 0 -> +A -> -A -> 0 of the loaded pair from gaps s0.

    Returns (rows, thresholds).  Each row is (v, j, x_top, x_bottom,
    label) with label the classified logic state or "indeterminate".
    Thresholds are the frac-of-peak current crossings on each branch;
    an amplitude too small to produce a conduction event on both
    branches raises ThresholdExtractionError.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in (0, 1), got {frac!r}")
    rows = _triangle_sweep(amplitude, rate, s0, n_samples, _PairSolve,
                           CRS_MOTION_LIMIT, p)
    mid = p.gap_midpoint()
    rows = [(*r, classify(*r[2:], mid) or "indeterminate") for r in rows]
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
