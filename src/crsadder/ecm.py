"""Compact model of a single electrochemical metallization (ECM) cell.

The cell is a metal filament growing through an insulating layer of
thickness L toward the active electrode; the state variable x is the
residual tunneling gap between filament tip and active electrode.  Three
coupled relations drive it:

  * filament growth/dissolution from the ionic current (Faraday's law),
  * an electron-transfer (Tafel-type) current across each of the two
    electrochemical interfaces, driven by overpotentials eta1 and eta2,
  * an electron tunneling current across the gap, linear in the voltage
    over the gap at low bias.

Equivalent circuit, from the cell terminals inward: electrode resistance
R_el, metallic filament resistance R_fil = (L - x)/(sigma_fil * A_fil),
then two parallel branches spanning the gap region: the ionic branch
(eta1 source -> R_ion -> eta2 source, R_ion = x/(sigma_ion * A_fil)) and
the electronic tunneling branch (V_Tu across the gap).

Sign convention: positive cell voltage drives filament growth (gap
shrinks, SET); negative dissolves it (RESET).  Mass quantities are kept
in grams; they cancel inside Faraday's law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

# CODATA 2018 exact values
E_CHARGE = 1.602176634e-19   # C
PLANCK = 6.62607015e-34      # J s
BOLTZMANN = 1.380649e-23     # J/K


class ConvergenceError(RuntimeError):
    """DC or transient solve failed; carries the last residual seen."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


# ======================================================================
# parameters and state
# ======================================================================

@dataclass(frozen=True)
class EcmParams:
    """Physical cell parameters, SI units except masses in grams."""

    r_el: float = 0.070           # electrode series resistance, ohm
    l: float = 20e-9              # insulating layer thickness, m
    rho_m: float = 8.95e6         # filament metal mass density, g/m^3
    a_fil: float = 135.87e-18     # filament cross-section, m^2
    m_me: float = 1.06e-22        # atomic mass of filament metal, g
    sigma_fil: float = 5e7        # filament conductivity, S/m
    sigma_ion: float = 1e2        # ionic conductivity of the gap, S/m
    dw0: float = 3.6 * E_CHARGE   # tunneling barrier height, J
    m_eff: float = 0.86 * 9.1e-31  # tunneling effective mass, kg
    t: float = 300.0              # temperature, K
    alpha: float = 0.5            # charge-transfer coefficient
    z: float = 1.0                # ion charge number
    j0: float = 0.01              # exchange current density, A/m^2
    x_min: float = 0.1e-9         # minimum gap (filament fully grown), m

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        positive = ("r_el", "l", "rho_m", "a_fil", "m_me", "sigma_fil",
                    "sigma_ion", "dw0", "m_eff", "t", "z", "j0", "x_min")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.x_min >= self.l:
            raise ValueError("x_min must be smaller than l")
        # derived constants, precomputed because the solvers sit in hot loops
        kt = BOLTZMANN * self.t
        root = math.sqrt(2.0 * self.m_eff * self.dw0)
        object.__setattr__(self, "_j0a", self.j0 * self.a_fil)
        object.__setattr__(self, "_beta_a", (1.0 - self.alpha) * self.z * E_CHARGE / kt)
        object.__setattr__(self, "_beta_c", self.alpha * self.z * E_CHARGE / kt)
        object.__setattr__(self, "_k_faraday",
                           self.m_me / (self.z * E_CHARGE * self.a_fil * self.rho_m))
        object.__setattr__(self, "_tun_pref",
                           1.5 * root * (E_CHARGE / PLANCK) ** 2 * self.a_fil)
        object.__setattr__(self, "_tun_kappa", 4.0 * math.pi / PLANCK * root)

    def gap_midpoint(self):
        """Gap threshold separating low- from high-resistive classification."""
        return 0.5 * (self.x_min + self.l)


@dataclass(frozen=True)
class EcmState:
    """Dynamic state of one cell: the tunneling gap width x in meters."""

    x: float

    def __post_init__(self):
        if not math.isfinite(self.x) or self.x <= 0:
            raise ValueError(f"gap must be a positive finite length, got {self.x!r}")


class CellSolution(NamedTuple):
    """Self-consistent DC operating point of a single cell."""

    v_cell: float
    x: float
    eta1: float       # overpotential, active-electrode interface, V
    eta2: float       # overpotential, filament-tip interface, V
    v_tu: float       # voltage over the parallel gap block, V
    i_ion: float      # ionic branch current, A
    i_tu: float       # tunneling branch current, A
    i_total: float    # terminal current, A
    r_ion: float      # ohm
    r_fil: float      # ohm
    kvl_residual: float   # loop voltage mismatch, V
    g_diff: float     # differential conductance dI/dV, S


PARAM_KEYS = tuple(f.name for f in fields(EcmParams))


def load_params(path):
    """Read key=value parameter file (SI units); missing keys keep defaults."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in PARAM_KEYS:
                raise ValueError(f"{path}:{ln}: unknown parameter {key!r}")
            overrides[key] = float(value.strip())
    return EcmParams(**overrides)


def params_text(p):
    lines = [f"{name} = {getattr(p, name):.17g}" for name in PARAM_KEYS]
    return "\n".join(lines) + "\n"


# ======================================================================
# constitutive relations
# ======================================================================

def ionic_current(eta1, v_cell_sign, p):
    """Tafel-type electron-transfer current at the active-electrode interface.

    The anodic exponential dominates under positive cell bias, the
    cathodic one under negative bias; the opposite branch saturates at
    the exchange current j0*A_fil.  Zero polarity carries no current.
    """
    if not math.isfinite(eta1):
        raise ValueError(f"eta1 must be finite, got {eta1!r}")
    if v_cell_sign > 0:
        return p._j0a * math.expm1(p._beta_a * eta1)
    if v_cell_sign < 0:
        return -p._j0a * math.expm1(-p._beta_c * eta1)
    return 0.0


def tunnel_conductance(x, p):
    """Low-bias tunneling conductance of a gap of width x, S."""
    if not math.isfinite(x) or x <= 0:
        raise ValueError(f"gap must be a positive finite length, got {x!r}")
    return p._tun_pref / x * math.exp(-p._tun_kappa * x)


def state_derivative(i_ion, p):
    """Gap velocity dx/dt from Faraday's law, m/s.

    Positive ionic current deposits metal at the filament tip and closes
    the gap, hence the negative sign.
    """
    return -p._k_faraday * i_ion


# ======================================================================
# DC operating point
# ======================================================================

KVL_TOL = 1e-12   # relative loop-voltage tolerance for accepted solutions


def cell_constants(x, p):
    """(R_ion, R_fil, R_ser = R_el + R_fil, tunnel conductance) at gap x,
    ohm and S: the constants of evaluate_branch and of a cell voltage."""
    r_fil = (p.l - x) / (p.sigma_fil * p.a_fil)
    return (x / (p.sigma_ion * p.a_fil), r_fil, p.r_el + r_fil,
            tunnel_conductance(x, p))


def evaluate_branch(eta1, sign, r_ion, g_tu, p):
    """(i_ion, eta2, v_tu, i_tot, dv_tu/d(eta1), di_tot/d(eta1)) of a cell
    of polarity sign at eta1, all explicit: i_ion from the interface
    kinetics, eta2 from the tip interface carrying it, v_tu from the ionic
    branch KVL, i_tot the branch sum; the cell voltage is v_tu + i_tot *
    R_ser."""
    i_ion = ionic_current(eta1, sign, p)
    # the tip interface runs the reaction in the opposite direction, so
    # the anodic/cathodic coefficients swap roles there; its Tafel law
    # inverted at i_ion, log1p(expm1(z)) = z, leaves eta2 linear in eta1
    b_in, b_tip = ((p._beta_a, p._beta_c) if sign > 0
                   else (p._beta_c, p._beta_a))
    ratio = b_in / b_tip
    eta2 = ratio * eta1
    di = b_in * (p._j0a + sign * i_ion)
    v_tu = eta1 + i_ion * r_ion + eta2
    dvtu = 1.0 + ratio + r_ion * di
    return i_ion, eta2, v_tu, i_ion + g_tu * v_tu, dvtu, di + g_tu * dvtu


def eta_step(eta, dv, dv_deta, sign, lo, hi, p):
    """Next eta1 from eta moving the cell's voltage by dv (slope dv_deta),
    inside (lo, hi): a step leaving it goes halfway to the end it crosses
    (bisection when eta is a bracket end).  The step is Newton's in eta1,
    except toward zero from 0.9/beta on, where Newton in eta1 walks down
    the interface exponential about 1/beta a step: there it is Newton's
    in i_ion, in which the voltage is concave, ln(1 + beta * dv /
    dv_deta) / beta, landing on or below the root (-sign * inf past zero
    current).  Shorter steps leave ordinary solves' iterates as they were.
    """
    step = dv / dv_deta
    beta = p._beta_a if sign > 0 else p._beta_c
    arg = beta * step * sign
    if arg <= -0.9:
        step = (sign * math.log1p(arg) / beta if arg > -1.0
                else -sign * math.inf)
    new = eta + step
    return new if lo < new < hi else 0.5 * (eta + (hi if new >= hi else lo))


def solve_cell_dc(v_cell, x, p, eta_guess=None, dt=0.0):
    """Solve the cell's DC operating point at v_cell: at gap x, or for
    dt > 0 at the end of a backward-Euler substep of dt from x.

    Single unknown: eta1 (evaluate_branch); over a substep the gap
    follows it, y = clamp(x - dt * k_faraday * i_ion(eta1), x_min, l).
    eta_step drives the loop equation v_cell = v_tu + i_tot * R_ser, its
    slope taken along y(eta1), below KVL_TOL inside the bracket between
    0 and v_cell, in iterations that do not grow with |v_cell|.  A
    substep also accepts a Newton step moving y by 1e-9 of the span or
    less (doubled above the root, where the convex cell voltage shortens
    it) and a clamp the root drives further; two steps that fail to
    halve the residual, as across the kink where y meets the rail, give
    way to bisection.  A cold start's first iterate, v_cell / 2,
    overflows from about 73.4 V: that raises ConvergenceError.
    """
    if not math.isfinite(v_cell):
        raise ValueError(f"v_cell must be finite, got {v_cell!r}")
    kdt, y = dt * p._k_faraday, x
    if not kdt:
        r_ion, r_fil, r_ser, g_tu = cell_constants(x, p)
    sign = -1 if v_cell < 0 else 1
    b_in = p._beta_a if sign > 0 else p._beta_c
    # resid is v_cell at eta1 = 0 and past zero at eta1 = v_cell (v_tu
    # alone exceeds it): bracket [0, v] or [v, 0].  Zero bias solves at
    # eta1 = 0 on the forward branch, whose conductance equals the reverse
    # branch's there, so g_diff is continuous through v_cell = 0.
    lo, hi = (0.0, v_cell) if sign > 0 else (v_cell, 0.0)
    eta = eta_guess if (eta_guess is not None and lo < eta_guess < hi) \
        else 0.5 * (lo + hi)
    # absolute floor keeps the accept test meaningful for denormal-range
    # voltages where the relative tolerance underflows
    tol = max(KVL_TOL * abs(v_cell), 1e-300)
    gap_tol = 1e-9 * (p.l - p.x_min) + 1e-30
    resid = r_back = r_back2 = math.inf
    for _ in range(120):
        try:
            if kdt:
                y_free = x - kdt * ionic_current(eta, sign, p)
                y = min(max(y_free, p.x_min), p.l)
                r_ion, r_fil, r_ser, g_tu = cell_constants(y, p)
            i_ion, eta2, v_tu, i_tot, dvtu, di_tot = evaluate_branch(
                eta, sign, r_ion, g_tu, p)
        except OverflowError:
            raise ConvergenceError(
                f"DC solve overflowed at v_cell={v_cell:.6g} V, x={x:.6g} m, "
                f"eta1={eta:.6g} V", resid) from None
        resid = v_cell - i_tot * r_ser - v_tu
        dv = dvtu + di_tot * r_ser     # d(cell voltage)/d(eta1) at fixed y
        slope, gap_err = dv, math.inf
        if kdt and y != y_free:     # clamped: dy/d(eta1) = 0
            gap_err = 0.0 if sign * resid > 0.0 else math.inf
        elif kdt:
            dy = -kdt * b_in * (p._j0a + sign * i_ion)  # dy/d(eta1)
            gap_err = abs(dy * math.expm1(min(sign * b_in * resid / dv, 700.0))
                          / b_in) * (1.0 if sign * resid > 0.0 else 2.0)
            # d(cell voltage)/dy at fixed eta1: R_ion = y / (sigma_ion A),
            # R_ser falls by 1 / (sigma_fil A), d(ln g_tu)/dy = -(1/y + kappa)
            dvtu_y = i_ion * r_ion / y
            dv_y = (dvtu_y - i_tot / (p.sigma_fil * p.a_fil) + r_ser * g_tu
                    * (dvtu_y - (1.0 / y + p._tun_kappa) * v_tu))
            slope = dv + dv_y * dy if dv + dv_y * dy > 0.0 else dv
        if abs(resid) <= tol or gap_err <= gap_tol:
            break
        if resid > 0:
            lo = eta    # the root lies above
        else:
            hi = eta
        eta_new = (0.5 * (lo + hi) if kdt and abs(resid) > 0.5 * r_back2
                   else eta_step(eta, resid, slope, sign, lo, hi, p))
        r_back2, r_back = r_back, abs(resid)
        if eta_new == eta:
            break   # bracket exhausted at float resolution
        eta = eta_new
    # within 1e3 * tol: float-limited but physically converged
    if abs(resid) <= 1e3 * tol or gap_err <= gap_tol:
        return CellSolution(v_cell, y, eta, eta2, v_tu, i_ion, g_tu * v_tu,
                            i_tot, r_ion, r_fil, resid, di_tot / dv)
    raise ConvergenceError(
        f"DC solve stalled at v_cell={v_cell:.6g} V, x={x:.6g} m", resid)


# ======================================================================
# transient integration
# ======================================================================

MOTION_LIMIT = 0.05   # max gap motion per implicit substep, fraction of span


def _rail_masked_rate(rate, x, p):
    """Zero out velocity pushing the gap further into a rail it sits at."""
    return 0.0 if (x >= p.l if rate > 0.0 else x <= p.x_min) else rate


def march(xs, solve, dt, p, limit):
    """Advance the gaps xs of coupled cells by dt; the one substep loop.

    Each substep starts from solve(xs), one CellSolution per cell at its
    current gap, and moves every cell by one backward-Euler substep at
    its frozen cell voltage: solve_cell_dc with dt, warm-started from
    the cell's eta1.  The substep is the largest interval keeping the
    explicit motion estimate of every cell under limit of the full span
    (rates pinning a gap against a rail are ignored, the clamp absorbs
    them); a cell with no such rate keeps its gap without a solve.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    span = p.l - p.x_min
    remaining = dt
    while remaining > 0.0:
        sols = solve(xs)
        rates = [_rail_masked_rate(state_derivative(s.i_ion, p), s.x, p)
                 for s in sols]
        worst = max(abs(r) for r in rates)
        if worst == 0.0:
            break   # every cell clamped or unbiased: nothing moves for any dt
        sub = remaining
        if worst * sub > limit * span:
            sub = limit * span / worst
        xs = tuple(solve_cell_dc(s.v_cell, s.x, p, s.eta1, sub).x if r
                   else s.x for s, r in zip(sols, rates))
        remaining -= sub
    return xs


class _CellSolve:
    """One cell's DC solve at voltage v as march's solve; a gap equal to
    the last one solved reuses its solution, as crs._PairSolve does."""

    def __init__(self, v, p):
        self.v, self.p, self.xs, self.sols = v, p, None, None

    def __call__(self, xs):
        if xs != self.xs:
            self.xs, self.sols = xs, (solve_cell_dc(self.v, xs[0], self.p),)
        return self.sols


# ======================================================================
# quasi-static I-V sweep
# ======================================================================

DEFAULT_SWEEP_RATE = 2.0    # V/s; places the SET/RESET landmarks near
                            # 1.3 V / -0.55 V with default parameters
DEFAULT_UNIT_AMPLITUDE = 1.5


def triangle_voltage(t, amplitude, rate):
    """0 -> +A -> -A -> 0 triangle; total period 4*A/rate."""
    s = rate * t
    if s <= amplitude:
        return s
    if s <= 3.0 * amplitude:
        return 2.0 * amplitude - s
    return s - 4.0 * amplitude


def _triangle_sweep(amplitude, rate, xs, n_samples, solver, limit, p):
    """Rows (v, i, *xs) at n_samples + 1 even instants of one triangle
    period: xs marches each interval with solver(v, p) at its end voltage,
    and i is that same solve's last-cell current at the end gaps."""
    for name, value in (("amplitude", amplitude), ("rate", rate)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    total = 4.0 * amplitude / rate
    rows, t_prev = [], 0.0
    for k in range(n_samples + 1):
        t = total * k / n_samples
        v = triangle_voltage(t, amplitude, rate)
        solve = solver(v, p)
        if t > t_prev:
            xs = march(xs, solve, t - t_prev, p, limit)
            t_prev = t
        rows.append((v, solve(xs)[-1].i_total, *xs))
    return rows


def sweep_iv_unit(amplitude, rate, s0, p, n_samples=1500):
    """Triangular quasi-static sweep of a single cell.

    Returns (v, i, x) rows, one per sample instant, from s0's gap
    clamped into [x_min, l].
    """
    return _triangle_sweep(amplitude, rate, (min(max(s0.x, p.x_min), p.l),),
                           n_samples, _CellSolve, MOTION_LIMIT, p)


def extract_unit_landmarks(rows, p):
    """(v_set, v_reset) from sweep rows; None where no switching occurred.

    v_set: sweep voltage at which the gap first crosses the midpoint
    downward (filament completes enough growth to classify low-ohmic).
    v_reset: voltage of the negative-branch current-magnitude peak,
    reported only if the gap later crosses the midpoint upward (the
    dissolution actually completed).
    """
    mid = p.gap_midpoint()
    v_set = None
    for k in range(1, len(rows)):
        v, _, x = rows[k]
        if rows[k - 1][2] >= mid > x and v > 0:
            v_set = v
            break
    v_reset = None
    neg = [(k, v, i) for k, (v, i, _) in enumerate(rows) if v < 0]
    if neg:
        k_pk, v_pk, _ = max(neg, key=lambda r: abs(r[2]))
        completed = any(rows[k - 1][2] < mid <= rows[k][2]
                        for k in range(k_pk + 1, len(rows)))
        if completed:
            v_reset = v_pk
    return v_set, v_reset
