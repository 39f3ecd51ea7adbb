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


@dataclass(frozen=True)
class CellSolution:
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


def _eta2_from_current(i_ion, v_cell_sign, p):
    """Overpotential at the filament-tip interface carrying i_ion.

    The tip interface obeys the same kinetics with current and
    overpotential reversed (the reaction runs in the opposite direction
    there), so the anodic/cathodic coefficients swap roles.
    """
    if v_cell_sign > 0:
        return math.log1p(i_ion / p._j0a) / p._beta_c
    if v_cell_sign < 0:
        return -math.log1p(-i_ion / p._j0a) / p._beta_a
    return 0.0


def _d_eta2_d_i(i_ion, v_cell_sign, p):
    if v_cell_sign > 0:
        return 1.0 / (p._beta_c * (p._j0a + i_ion))
    return 1.0 / (p._beta_a * (p._j0a - i_ion))


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


def resistances(x, p):
    """(R_ion, R_fil) of the gap region and the grown filament, ohm."""
    return x / (p.sigma_ion * p.a_fil), (p.l - x) / (p.sigma_fil * p.a_fil)


# ======================================================================
# DC operating point
# ======================================================================

KVL_TOL = 1e-12   # relative loop-voltage tolerance for accepted solutions


def solve_cell_dc(v_cell, x, p, eta_guess=None):
    """Solve the cell's DC operating point at fixed gap x.

    Single unknown: eta1.  Given eta1 the ionic current follows from the
    interface kinetics, eta2 from the tip interface carrying the same
    current, the gap-block voltage from the ionic branch KVL, the
    tunneling current from that voltage, and the terminal current as the
    branch sum (node KCL exact by construction).  The remaining loop
    equation is driven below KVL_TOL by a bracketed damped Newton
    iteration with bisection fallback.
    """
    if not math.isfinite(v_cell):
        raise ValueError(f"v_cell must be finite, got {v_cell!r}")
    r_ion, r_fil = resistances(x, p)
    sign = -1 if v_cell < 0 else 1
    r_ser = p.r_el + r_fil
    g_tu = tunnel_conductance(x, p)

    def evaluate(eta1):
        i_ion = ionic_current(eta1, sign, p)
        eta2 = _eta2_from_current(i_ion, sign, p)
        v_tu = eta1 + i_ion * r_ion + eta2
        i_tot = i_ion + g_tu * v_tu
        resid = v_cell - i_tot * r_ser - v_tu
        # d(resid)/d(eta1), all terms analytic
        if sign > 0:
            di = p._j0a * p._beta_a * math.exp(p._beta_a * eta1)
        else:
            di = p._j0a * p._beta_c * math.exp(-p._beta_c * eta1)
        dvtu = 1.0 + (r_ion + _d_eta2_d_i(i_ion, sign, p)) * di
        di_tot = di + g_tu * dvtu    # dI/d(eta1)
        return resid, -di_tot * r_ser - dvtu, i_ion, eta2, v_tu, i_tot, di_tot

    # resid is strictly decreasing in eta1; bracket is [0, v] (or [v, 0]).
    # Zero bias solves exactly at eta1 = 0 on the forward branch, whose
    # conductance there equals the reverse branch's, so g_diff is
    # continuous through v_cell = 0.
    lo, hi = (0.0, v_cell) if sign > 0 else (v_cell, 0.0)
    eta = eta_guess if (eta_guess is not None and lo < eta_guess < hi) \
        else 0.5 * (lo + hi)
    # absolute floor keeps the accept test meaningful for denormal-range
    # voltages where the relative tolerance underflows
    tol = max(KVL_TOL * abs(v_cell), 1e-300)
    for _ in range(120):
        resid, dresid, i_ion, eta2, v_tu, i_tot, di_tot = evaluate(eta)
        if abs(resid) <= tol:
            break
        if resid > 0:
            lo = eta    # resid decreases with eta1: root lies above
        else:
            hi = eta
        step = -resid / dresid if dresid != 0.0 else math.nan
        eta_new = eta + step
        if not (lo < eta_new < hi) or not math.isfinite(eta_new):
            eta_new = 0.5 * (lo + hi)
        if eta_new == eta:
            break   # bracket exhausted at float resolution
        eta = eta_new
    # within 1e3 * tol: float-limited but physically converged.  resid is
    # v_cell minus a function of eta1, so dV/d(eta1) = -dresid there
    if abs(resid) <= 1e3 * tol:
        return CellSolution(v_cell, x, eta, eta2, v_tu, i_ion, g_tu * v_tu,
                            i_tot, r_ion, r_fil, resid, -di_tot / dresid)
    raise ConvergenceError(
        f"DC solve stalled at v_cell={v_cell:.6g} V, x={x:.6g} m", resid)


# ======================================================================
# transient integration
# ======================================================================

MOTION_LIMIT = 0.05   # max gap motion per implicit substep, fraction of span


def _rail_masked_rate(rate, x, p):
    """Zero out velocity pushing the gap further into a rail it sits at."""
    if rate > 0.0 and x >= p.l:
        return 0.0
    if rate < 0.0 and x <= p.x_min:
        return 0.0
    return rate


def _implicit_substep(sol, dt, p):
    """One backward-Euler substep from the DC solution sol at the cell's
    current gap: solve g(y) = y - x - dt*f(y) = 0 with clamping, f at
    sol.v_cell.

    f keeps the sign of v_cell, so the root lies between x and the rail
    the cell moves toward.  g(x) = -dt*f(x) is known from sol, so x is a
    bracket end for free; the rail is solved only when a step lands on
    or past it, and a rail whose g has the sign of g(x) is the clamped
    result.  The explicit predictor x + dt*f(x) is the first iterate,
    then secant steps through the last two iterates, starting from
    (x, g(x)); a step that leaves the bracket falls back to regula falsi
    through its ends once both are known, else to bisection.  Returns y
    with |g(y)| within 1e-9 of the span, or the rail; raises
    ConvergenceError otherwise.
    """
    x, v_cell = sol.x, sol.v_cell
    if v_cell == 0.0:
        return x
    rate, eta = state_derivative(sol.i_ion, p), sol.eta1
    if _rail_masked_rate(rate, x, p) == 0.0:
        return x
    tol = 1e-9 * (p.l - p.x_min) + 1e-30

    def g(y):
        nonlocal eta
        s = solve_cell_dc(v_cell, y, p, eta_guess=eta)
        eta = s.eta1
        return y - x - dt * state_derivative(s.i_ion, p)

    gy = -dt * rate     # g(x)
    y = x + dt * rate   # explicit predictor
    if y == x and abs(gy) <= tol:
        return x        # motion below the float resolution of x
    # bracket [a, b] with g(a) < 0 < g(b); the rail's g is None until solved
    if rate < 0.0:
        a, ga, b, gb = p.x_min, None, x, gy
    else:
        a, ga, b, gb = x, gy, p.l, None
    y_prev, g_prev = x, gy
    for _ in range(80):
        if not a < y < b:   # also catches a non-finite step
            mid = 0.5 * (a + b)
            stuck = not a < mid < b     # no float between the ends
            if ga is None and (y <= a or stuck):
                ga = g(a)
                if ga >= 0.0:
                    return a    # driven past the rail: clamp
            elif gb is None and (y >= b or stuck):
                gb = g(b)
                if gb <= 0.0:
                    return b
            y = mid
            if ga is not None and gb is not None:
                y = (a * gb - b * ga) / (gb - ga)
                if not a < y < b:
                    y = mid
            if not a < y < b:   # no float left inside the bracket
                y, gy = (a, ga) if -ga < gb else (b, gb)
                if abs(gy) <= tol:
                    return y
                break
        gy = g(y)
        if abs(gy) <= tol:
            return y
        if gy < 0.0:
            a, ga = y, gy
        else:
            b, gb = y, gy
        denom = gy - g_prev
        y_prev, g_prev, y = y, gy, (
            y - gy * (y - y_prev) / denom if denom != 0.0 else math.nan)
    raise ConvergenceError(
        f"substep missed its tolerance at v_cell={v_cell:.6g} V, "
        f"x={x:.6g} m, dt={dt:.6g} s", gy)


def march(xs, solve, dt, p, max_dt, limit):
    """Advance the gaps xs of coupled cells by dt; the one substep loop.

    Each substep starts from solve(xs), one CellSolution per cell at its
    current gap, and moves every cell by one backward-Euler substep at
    its frozen cell voltage.  The substep is capped by max_dt (None: no
    cap) and by the largest interval keeping the explicit motion
    estimate of every cell under limit of the full span (rates pinning
    a gap against a rail are ignored, the clamp absorbs them).
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    span = p.l - p.x_min
    remaining = dt
    while remaining > 0.0:
        sub = min(remaining, max_dt) if max_dt else remaining
        sols = solve(xs)
        worst = max(abs(_rail_masked_rate(state_derivative(s.i_ion, p), s.x, p))
                    for s in sols)
        if worst == 0.0:
            break   # every cell clamped or unbiased: nothing moves for any dt
        if worst * sub > limit * span:
            sub = limit * span / worst
        xs = tuple(_implicit_substep(s, sub, p) for s in sols)
        remaining -= sub
    return xs


def step_transient(s, v_cell, dt, p):
    """Advance one cell by dt under constant applied voltage: a one-cell
    march with MOTION_LIMIT from the gap clamped into [x_min, l]."""
    x0 = min(max(s.x, p.x_min), p.l)
    (x,) = march((x0,), lambda xs: (solve_cell_dc(v_cell, xs[0], p),),
                 dt, p, None, MOTION_LIMIT)
    return EcmState(x)


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


def _triangle_sweep(amplitude, rate, s0, n_samples, advance, sample):
    """Rows sample(v, state) at n_samples + 1 even instants of one
    triangle period; advance(state, v, dt) carries the state across
    each interval at the interval's end voltage."""
    for name, value in (("amplitude", amplitude), ("rate", rate)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    total = 4.0 * amplitude / rate
    state = s0
    rows = []
    t_prev = 0.0
    for k in range(n_samples + 1):
        t = total * k / n_samples
        v = triangle_voltage(t, amplitude, rate)
        if t > t_prev:
            state = advance(state, v, t - t_prev)
            t_prev = t
        rows.append(sample(v, state))
    return rows


def sweep_iv_unit(amplitude, rate, s0, p, n_samples=1500):
    """Triangular quasi-static sweep of a single cell.

    Returns a list of (v, i, x) rows, one per sample instant, after
    advancing the state across each sampling interval.
    """
    return _triangle_sweep(
        amplitude, rate, s0, n_samples,
        lambda s, v, dt: step_transient(s, v, dt, p),
        lambda v, s: (v, solve_cell_dc(v, s.x, p).i_total, s.x))


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
