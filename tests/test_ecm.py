"""Single-cell model: branch formulas, DC operating point, transients.

Golden constants were frozen from tests/oracles.py (direct formula
evaluation plus the nested-bisection circuit solve), computed before
the package implementation existed.
"""

import hashlib
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from crsadder import ecm
from crsadder.ecm import (
    DEFAULT_SWEEP_RATE,
    DEFAULT_UNIT_AMPLITUDE,
    KVL_TOL,
    ConvergenceError,
    EcmParams,
    EcmState,
    extract_unit_landmarks,
    ionic_current,
    load_params,
    params_text,
    _implicit_substep,
    solve_cell_dc,
    state_derivative,
    step_transient,
    sweep_iv_unit,
    tunnel_conductance,
)

P = EcmParams()
SPAN = P.l - P.x_min

# frozen from tests/oracles.py
GOLD_IONIC_01 = 8.040407273294538e-18
GOLD_TUNNEL_1NM = 1.690834455490706e-11
GOLD_RATE_1NA = -5.44062585204343e-4
GOLD_DC_HI = 2.1523415127862895e-14     # V=1.0, x=L
GOLD_DC_LO = 3.5374562288068945e-3      # V=0.2, x=x_min
GOLD_DC_NEG = -8.843640572017343e-3     # V=-0.5, x=x_min
GOLD_T_SET_1V5 = 0.013525142082803867   # explicit-Euler event time


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# branch formulas
# ----------------------------------------------------------------------

def test_ionic_zero_overpotential():
    assert ionic_current(0.0, 1, P) == 0.0
    assert ionic_current(0.0, -1, P) == 0.0
    assert ionic_current(0.3, 0, P) == 0.0


def test_ionic_golden():
    assert rel(ionic_current(0.1, 1, P), GOLD_IONIC_01) < 1e-12


def test_ionic_negative_form_saturates():
    # the reverse term of the interface law caps at j0*A_fil
    j0a = P.j0 * P.a_fil
    val = ionic_current(40.0, -1, P)
    # deep positive overpotential under the negative-polarity form:
    # 1 - exp(-beta*eta) -> 1
    assert rel(val, j0a) < 1e-12


def test_ionic_rejects_nonfinite():
    with pytest.raises(ValueError):
        ionic_current(float("nan"), 1, P)


def test_tunnel_zero_bias():
    sol = solve_cell_dc(0.0, 1e-9, P)
    assert sol.v_tu == 0.0 and sol.i_tu == 0.0


def test_tunnel_golden():
    assert rel(tunnel_conductance(1e-9, P) * 0.1, GOLD_TUNNEL_1NM) < 1e-12


@given(x=st.floats(0.1e-9, 20e-9), v=st.floats(-2.0, 2.0))
def test_tunnel_linear_in_bias(x, v):
    # the oracle's current at 2v is twice the model's at v
    i1 = tunnel_conductance(x, P) * v
    i2 = oracles.tunnel_current_oracle(x, 2.0 * v)
    assert rel(i2, 2.0 * i1) < 1e-12 or (i1 == 0.0 and i2 == 0.0)


def test_tunnel_magnitude_decreasing_in_gap():
    vals = [tunnel_conductance(x, P)
            for x in (0.2e-9, 0.5e-9, 1e-9, 5e-9, 20e-9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tunnel_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        tunnel_conductance(0.0, P)
    with pytest.raises(ValueError):
        tunnel_conductance(-1e-9, P)


def test_gap_rate_golden():
    assert state_derivative(0.0, P) == 0.0
    assert rel(state_derivative(1e-9, P), GOLD_RATE_1NA) < 1e-12


@given(i=st.floats(-1e-3, 1e-3))
def test_gap_rate_opposes_current(i):
    d = state_derivative(i, P)
    if i > 0:
        assert d < 0
    elif i < 0:
        assert d > 0
    else:
        assert d == 0


# ----------------------------------------------------------------------
# DC operating point
# ----------------------------------------------------------------------

def test_dc_equilibrium():
    sol = solve_cell_dc(0.0, P.l, P)
    assert sol.i_total == 0.0 and sol.eta1 == 0.0 and sol.v_tu == 0.0


def test_dc_goldens():
    hi = solve_cell_dc(1.0, P.l, P)
    assert rel(hi.i_total, GOLD_DC_HI) < 1e-9
    # maximal gap: conduction is tunneling-limited through the full gap,
    # far below what the ionic interface alone would pass
    assert abs(hi.i_tu) < 1e-100

    lo = solve_cell_dc(0.2, P.x_min, P)
    assert rel(lo.i_total, GOLD_DC_LO) < 1e-9

    neg = solve_cell_dc(-0.5, P.x_min, P)
    assert rel(neg.i_total, GOLD_DC_NEG) < 1e-9


@settings(max_examples=30)
@given(v=st.floats(-1.5, 1.5).filter(lambda v: abs(v) > 1e-3),
       x=st.floats(0.1e-9, 20e-9))
def test_dc_matches_independent_bisection(v, x):
    sol = solve_cell_dc(v, x, P)
    ora = oracles.solve_dc_oracle(v, x)
    assert rel(sol.i_total, ora["i_total"]) < 1e-6


@given(v=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-12),
       x=st.floats(0.1e-9, 20e-9))
def test_dc_current_sign_follows_voltage(v, x):
    sol = solve_cell_dc(v, x, P)
    assert math.copysign(1.0, sol.i_total) == math.copysign(1.0, v)


@given(v=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-6),
       x=st.floats(0.1e-9, 20e-9))
def test_dc_kirchhoff_residuals(v, x):
    sol = solve_cell_dc(v, x, P)
    branch_max = max(abs(sol.i_ion), abs(sol.i_tu), abs(sol.i_total))
    assert abs(sol.i_ion + sol.i_tu - sol.i_total) <= 1e-12 * branch_max
    assert abs(sol.kvl_residual) <= 1e-9 * abs(v)


# rails exactly, and voltages from the write range down to the smallest
# subnormal, where the relative loop tolerance underflows to its floor
rail_or_gap = st.one_of(st.sampled_from([P.x_min, P.l]),
                        st.floats(P.x_min, P.l))
cell_voltages = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-1e-280, 1e-280),
    st.sampled_from([5e-324, -5e-324, 1e-300, -1e-310, 1e-290, 0.0]))


@given(v=cell_voltages, x=rail_or_gap)
def test_dc_meets_stated_kvl_tolerance(v, x):
    sol = solve_cell_dc(v, x, P)
    assert abs(sol.kvl_residual) <= 1e3 * max(KVL_TOL * abs(v), 1e-300)


def test_dc_solution_reports_resistances():
    x = 5e-9
    sol = solve_cell_dc(0.5, x, P)
    assert rel(sol.r_ion, x / (P.sigma_ion * P.a_fil)) < 1e-15
    assert rel(sol.r_fil, (P.l - x) / (P.sigma_fil * P.a_fil)) < 1e-15


@pytest.mark.parametrize("v", [1.0, -1.0, 0.3, -0.6, 0.0])
@pytest.mark.parametrize("x", [P.x_min, 5e-9, P.l])
def test_dc_differential_conductance_matches_finite_difference(v, x):
    # zero bias is where the solver switches kinetic branches; g_diff
    # must be the two-sided slope there too
    h = 1e-5 * abs(v) if v else 1e-9
    fd = (solve_cell_dc(v + h, x, P).i_total
          - solve_cell_dc(v - h, x, P).i_total) / (2.0 * h)
    g = solve_cell_dc(v, x, P).g_diff
    assert g > 0.0
    assert rel(g, fd) <= 1e-6


# ----------------------------------------------------------------------
# transient integration
# ----------------------------------------------------------------------

def test_transient_zero_drive_holds():
    s = EcmState(7e-9)
    assert step_transient(s, 0.0, 1.0, P).x == 7e-9


def test_transient_set_completion_time():
    # frozen from the explicit-Euler event-time oracle; the implicit
    # integrator must agree on when the gap first reaches the clamp
    s = EcmState(P.l)
    t, dt = 0.0, GOLD_T_SET_1V5 / 500.0
    while s.x > P.x_min and t < 3.0 * GOLD_T_SET_1V5:
        s = step_transient(s, 1.5, dt, P)
        t += dt
    assert s.x == P.x_min
    assert rel(t, GOLD_T_SET_1V5) < 0.02


def test_transient_dt_refinement_consistency():
    total = 0.008
    s1 = EcmState(P.l)
    s2 = EcmState(P.l)
    for _ in range(100):
        s1 = step_transient(s1, 1.2, total / 100, P)
    for _ in range(200):
        s2 = step_transient(s2, 1.2, total / 200, P)
    assert abs(s1.x - s2.x) < 1e-3 * SPAN


@given(v=st.floats(-3.0, 3.0), dt=st.floats(1e-9, 1e-2),
       x0=st.floats(0.1e-9, 20e-9))
@settings(max_examples=40)
def test_transient_stays_clamped(v, dt, x0):
    s = step_transient(EcmState(x0), v, dt, P)
    assert P.x_min <= s.x <= P.l


SUBSTEP_TOL = 1e-9 * SPAN + 1e-30


@given(v=cell_voltages, x=rail_or_gap, dt=st.floats(1e-12, 1e-2))
@example(v=3.0, x=P.l, dt=1e-2)          # predictor far past x_min
@example(v=-3.0, x=P.x_min, dt=1e-2)     # predictor far past l
@example(v=2.6, x=P.x_min, dt=1e-6)      # pinned at the rail it is driven into
@example(v=1e-300, x=5e-9, dt=1e-6)      # motion below the float resolution of x
def test_implicit_substep_meets_tolerance_or_clamps(v, x, dt):
    y = _implicit_substep(solve_cell_dc(v, x, P), dt, P)
    # residual of the backward-Euler step, f from an independent DC solve
    g = y - x - dt * state_derivative(solve_cell_dc(v, y, P).i_ion, P)
    if abs(g) <= SUBSTEP_TOL:
        assert P.x_min <= y <= P.l
    elif y == P.x_min:
        assert g > 0.0     # the root lies past x_min
    else:
        assert y == P.l and g < 0.0


def test_implicit_substep_one_ulp_from_the_rail():
    # no float lies between x and the rail; the predictor rounds onto the
    # rail, which is not past the root, so the answer is a bracket end
    x = math.nextafter(P.x_min, P.l)
    sol = solve_cell_dc(1e-3, x, P)
    dt = 0.75 * (x - P.x_min) / abs(state_derivative(sol.i_ion, P))
    y = _implicit_substep(sol, dt, P)
    g = y - x - dt * state_derivative(solve_cell_dc(1e-3, y, P).i_ion, P)
    assert y in (P.x_min, x) and abs(g) <= SUBSTEP_TOL


def test_implicit_substep_that_cannot_converge_raises(monkeypatch):
    # a gap velocity that jumps across the root leaves no y within the
    # tolerance; the substep must say so instead of returning an iterate
    def jumping_cell(v, x, p, eta_guess=None):
        speed = 1e-8 if x > 5e-9 else 1e-10
        return SimpleNamespace(v_cell=v, x=x, eta1=0.0,
                               i_ion=speed / p._k_faraday)

    monkeypatch.setattr(ecm, "solve_cell_dc", jumping_cell)
    with pytest.raises(ConvergenceError):
        _implicit_substep(jumping_cell(1.0, 10e-9, P), 1.0, P)


def test_implicit_substep_solves_the_rail_only_when_a_step_reaches_it(
        monkeypatch):
    # the gap accelerates toward x_min: speed 1, then 3 units once it has
    # moved one unit (u, in units of dt*1e-10 m), so g(u) ~ u - min(1+2u, 3)
    # with its root at u = 3.  The predictor lands at u = 1 with g of the
    # sign of g(x), and the secant through both points steps back past x;
    # that must bisect toward the unsolved rail, not solve it
    x, dt, unit = 10e-9, 1.0, 1e-10
    solved = []

    def accelerating_cell(v, y, p, eta_guess=None):
        solved.append(y)
        speed = unit * min(1.0 + 2.0 * (x - y) / unit, 3.0)
        return SimpleNamespace(v_cell=v, x=y, eta1=0.0,
                               i_ion=speed / p._k_faraday)

    sol = accelerating_cell(1.0, x, P)
    monkeypatch.setattr(ecm, "solve_cell_dc", accelerating_cell)
    y = _implicit_substep(sol, dt, P)
    assert abs(y - (x - 3 * unit)) <= SUBSTEP_TOL
    assert P.x_min not in solved


def test_transient_requires_positive_dt():
    with pytest.raises(ValueError):
        step_transient(EcmState(P.l), 1.0, 0.0, P)


# ----------------------------------------------------------------------
# quasi-static sweep
# ----------------------------------------------------------------------

# SHA-256 of repr(rows) of the default-cell sweep at 300 samples,
# recorded with the substep solve that starts from the explicit
# predictor and takes secant steps from (x, g(x))
GOLD_UNIT_SWEEP_300 = (
    "7d4fa406186ddf83eb75e8b766d8997a60cd3ec67a2222f586b327257ca75919")


def test_sweep_rows_golden():
    rows = sweep_iv_unit(DEFAULT_UNIT_AMPLITUDE, DEFAULT_SWEEP_RATE,
                         EcmState(P.l), P, n_samples=300)
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == GOLD_UNIT_SWEEP_300


def test_sweep_landmarks_default():
    rows = sweep_iv_unit(1.5, 2.0, EcmState(P.l), P)
    v_set, v_reset = extract_unit_landmarks(rows, P)
    assert v_set == pytest.approx(1.288, abs=0.01)
    assert v_reset == pytest.approx(-0.564, abs=0.01)
    # asymmetric window, growth onset well above dissolution onset
    assert v_set > abs(v_reset)


def test_sweep_is_hysteretic():
    rows = sweep_iv_unit(1.5, 2.0, EcmState(P.l), P)
    xs = [x for _, _, x in rows]
    assert min(xs) == P.x_min and max(xs) == P.l


def test_sweep_subthreshold_inert():
    rows = sweep_iv_unit(0.3, 2.0, EcmState(P.l), P)
    assert extract_unit_landmarks(rows, P) == (None, None)
    assert rows[-1][2] == P.l


def test_sweep_rate_raises_set_voltage():
    slow = sweep_iv_unit(1.5, 2.0, EcmState(P.l), P)
    fast = sweep_iv_unit(1.5, 8.0, EcmState(P.l), P)
    v_slow, _ = extract_unit_landmarks(slow, P)
    v_fast, _ = extract_unit_landmarks(fast, P)
    assert v_fast > v_slow


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep_iv_unit(0.0, 1.0, EcmState(P.l), P)
    with pytest.raises(ValueError):
        sweep_iv_unit(1.5, -1.0, EcmState(P.l), P)
    with pytest.raises(ValueError):
        sweep_iv_unit(1.5, 2.0, EcmState(P.l), P, n_samples=0)
    for name, amplitude, rate in (("rate", 1.5, math.nan),
                                  ("rate", 1.5, math.inf),
                                  ("amplitude", math.nan, 2.0),
                                  ("amplitude", math.inf, 2.0)):
        with pytest.raises(ValueError, match=name):
            sweep_iv_unit(amplitude, rate, EcmState(P.l), P)


# ----------------------------------------------------------------------
# parameter validation and files
# ----------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        EcmParams(alpha=1.5)
    with pytest.raises(ValueError):
        EcmParams(l=-1e-9)
    with pytest.raises(ValueError):
        EcmParams(x_min=30e-9)   # clamp above layer thickness


def test_params_file_roundtrip(tmp_path):
    p = EcmParams(t=311.0, j0=0.02)
    path = tmp_path / "cell.params"
    path.write_text(params_text(p))
    q = load_params(path)
    assert q == p


def test_params_text_lists_every_key():
    text = params_text(EcmParams())
    for key in ("r_el", "l", "rho_m", "a_fil", "m_me", "sigma_fil",
                "sigma_ion", "dw0", "m_eff", "t", "alpha", "z", "j0",
                "x_min"):
        assert f"{key} = " in text


def test_params_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.params"
    path.write_text("l = 2e-8\nwat = 1\n")
    with pytest.raises(ValueError):
        load_params(path)


def test_convergence_error_carries_residual():
    err = ConvergenceError("no", residual=0.25)
    assert err.residual == 0.25


def test_tunnel_conductance_consistent_with_current():
    g = tunnel_conductance(1e-9, P)
    assert rel(g * 0.1, oracles.tunnel_current_oracle(1e-9, 0.1)) < 1e-12
