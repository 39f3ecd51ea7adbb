"""Anti-serial pair: state machine, decode, divider, pulses, sweep."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crsadder import crs
from crsadder.crs import (
    DIVIDER_KCL_FLOOR,
    DIVIDER_KCL_TOL,
    CrsDeviceState,
    CrsLogicState,
    IndeterminateStateError,
    ThresholdExtractionError,
    classify,
    crs_pulse,
    crs_state_for_bit,
    decode_state,
    fsm_next,
    series_current,
    solve_crs_divider,
    step_crs_transient,
    sweep_iv_crs,
)
from crsadder.ecm import ConvergenceError, EcmParams, EcmState

P = EcmParams()
MID = P.gap_midpoint()
SPAN = P.l - P.x_min

# calibrated full-select write amplitude and pulse width used by the
# device executor for these parameters (see executor calibration tests)
V_W = 2.6
T_PULSE = 3.850859888774472e-4

# state transition table: (z_prev, wl, bl) -> z
FSM_TABLE = {
    (0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 1, (0, 1, 1): 0,
    (1, 0, 0): 1, (1, 0, 1): 0, (1, 1, 0): 1, (1, 1, 1): 1,
}


# ----------------------------------------------------------------------
# state machine
# ----------------------------------------------------------------------

def test_fsm_exhaustive_table():
    for (z, wl, bl), want in FSM_TABLE.items():
        assert fsm_next(z, wl, bl) == want


def test_fsm_write_dominance():
    for z in (0, 1):
        assert fsm_next(z, 1, 0) == 1
        assert fsm_next(z, 0, 1) == 0


def test_fsm_equal_levels_hold():
    for z in (0, 1):
        for s in (0, 1):
            assert fsm_next(z, s, s) == z


def test_fsm_rejects_nonbits():
    with pytest.raises(ValueError):
        fsm_next(2, 0, 0)
    with pytest.raises(ValueError):
        fsm_next(0, "1", 0)


# ----------------------------------------------------------------------
# encoding / decoding
# ----------------------------------------------------------------------

def test_decode_corner_states():
    assert decode_state(CrsDeviceState(EcmState(P.x_min), EcmState(P.l)),
                        MID) is CrsLogicState.ZERO
    assert decode_state(CrsDeviceState(EcmState(P.l), EcmState(P.x_min)),
                        MID) is CrsLogicState.ONE
    assert decode_state(CrsDeviceState(EcmState(P.x_min), EcmState(P.x_min)),
                        MID) is CrsLogicState.ON


def test_decode_rejects_double_hrs():
    with pytest.raises(IndeterminateStateError):
        decode_state(CrsDeviceState(EcmState(P.l), EcmState(P.l)), MID)


def test_classify_total():
    assert classify(P.x_min, P.l, MID) is CrsLogicState.ZERO
    assert classify(P.l, P.x_min, MID) is CrsLogicState.ONE
    assert classify(P.x_min, P.x_min, MID) is CrsLogicState.ON
    assert classify(P.l, P.l, MID) is None


def test_bit_encoding_roundtrip():
    for bit in (0, 1):
        s = crs_state_for_bit(bit, P)
        assert str(decode_state(s, MID)) == str(bit)


# ----------------------------------------------------------------------
# voltage divider
# ----------------------------------------------------------------------

def assert_kcl(v_w, v_b, result):
    """The divider's stated contract: node KCL to 1e-12 of the larger
    branch current (or to the absolute floor where that underflows),
    v_m between the lines, j the bottom cell current."""
    v_m, j, sol_t, sol_b = result
    scale = max(abs(sol_t.i_total), abs(sol_b.i_total))
    assert abs(sol_t.i_total + sol_b.i_total) <= max(
        DIVIDER_KCL_TOL * scale, DIVIDER_KCL_FLOOR)
    assert min(v_w, v_b) <= v_m <= max(v_w, v_b)
    assert j == sol_b.i_total


@pytest.mark.parametrize("x_top,x_bot,v", [
    (P.x_min, P.x_min, V_W),        # conducting pair
    (P.x_min, P.l, V_W),            # stored 0 under write stress
    (P.l, P.x_min, V_W),            # stored 1 under write stress
    (5e-9, 1e-9, V_W),              # asymmetric mid-gap
    (12e-9, 3e-9, V_W / 2),
])
def test_divider_current_consistency(x_top, x_bot, v):
    v_w, v_b = v / 2, -v / 2
    assert_kcl(v_w, v_b, solve_crs_divider(v_w, v_b, x_top, x_bot, P))


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("v", [V_W / 2, -V_W / 2])
def test_divider_half_select_meets_tolerance(bit, v):
    # stored states sit exactly at the rails (x_min / l), where the middle
    # node lies within about 1e-7 of the low-ohmic cell's line
    s = crs_state_for_bit(bit, P)
    for v_w, v_b in ((v, 0.0), (0.0, -v), (v / 2, -v / 2)):
        assert_kcl(v_w, v_b, solve_crs_divider(v_w, v_b, s.top.x,
                                               s.bottom.x, P))


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("v", [1e-290, 1e-300, 5e-324])
def test_divider_at_subnormal_scale_line_differences(bit, v):
    # cell currents of about 1e-307 A and below: the relative tolerance
    # underflows and the absolute floor decides
    s = crs_state_for_bit(bit, P)
    for v_w, v_b in ((v, 0.0), (0.0, -v), (-v, 0.0), (v / 2, -v / 2)):
        assert_kcl(v_w, v_b, solve_crs_divider(v_w, v_b, s.top.x,
                                               s.bottom.x, P))


gaps = st.one_of(st.sampled_from([P.x_min, P.l]), st.floats(P.x_min, P.l))
line_differences = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-1e-3, 1e-3),
    st.sampled_from([V_W, -V_W, V_W / 2, -V_W / 2, 1e-9, -1e-12]))


@given(x_top=gaps, x_bot=gaps, v=line_differences,
       common=st.sampled_from([0.0, V_W / 2, -V_W / 2]))
def test_divider_meets_kcl_tolerance(x_top, x_bot, v, common):
    v_w, v_b = common + v / 2, common - v / 2
    assert_kcl(v_w, v_b, solve_crs_divider(v_w, v_b, x_top, x_bot, P))


def test_divider_that_cannot_converge_raises(monkeypatch):
    # a current that jumps across zero has no KCL root to 1e-12; the
    # divider must say so instead of returning its last iterate
    def jumping_cell(v, x, p, eta_guess=None):
        return SimpleNamespace(i_total=math.copysign(x, v) if v else 0.0,
                               g_diff=0.0)

    monkeypatch.setattr(crs, "solve_cell_dc", jumping_cell)
    with pytest.raises(ConvergenceError):
        solve_crs_divider(V_W / 2, -V_W / 2, P.x_min, P.l, P)


def test_divider_equal_rails_is_equilibrium():
    v_m, j, sol_t, sol_b = solve_crs_divider(1.3, 1.3, 5e-9, 1e-9, P)
    assert j == 0.0 and sol_t.i_total == 0.0 and sol_b.i_total == 0.0


def test_series_current_storage_leakage():
    # both stored states must look high-resistive at read-level bias
    for bit in (0, 1):
        s = crs_state_for_bit(bit, P)
        assert abs(series_current(0.61, s, P)) < 1e-12


# ----------------------------------------------------------------------
# pair transients
# ----------------------------------------------------------------------

def test_pair_zero_drive_holds():
    s0 = crs_state_for_bit(0, P)
    s1 = step_crs_transient(s0, 0.0, 1.0, P)
    assert s1.top.x == s0.top.x and s1.bottom.x == s0.bottom.x


def test_full_write_passes_through_on():
    s0 = crs_state_for_bit(0, P)
    s1, peak, samples = crs_pulse(s0, V_W, T_PULSE, P, n_samples=60)
    assert decode_state(s1, MID) is CrsLogicState.ONE
    labels = [classify(xt, xb, MID) for _, _, _, xt, xb in samples]
    assert CrsLogicState.ON in labels
    # the ON interval carries the write spike
    assert peak > 1e-3


def test_read_of_one_is_quiet():
    s0 = crs_state_for_bit(1, P)
    s1, peak, _ = crs_pulse(s0, V_W, T_PULSE, P, n_samples=60)
    assert decode_state(s1, MID) is CrsLogicState.ONE
    assert peak < 1e-6


def test_negative_write_returns_to_zero():
    s0 = crs_state_for_bit(1, P)
    s1, peak, _ = crs_pulse(s0, -V_W, T_PULSE, P, n_samples=60)
    assert decode_state(s1, MID) is CrsLogicState.ZERO
    assert peak > 1e-3


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_half_select_holds_state(bit, sign):
    s0 = crs_state_for_bit(bit, P)
    s1, _, _ = crs_pulse(s0, sign * V_W / 2, T_PULSE, P, n_samples=30)
    assert str(decode_state(s1, MID)) == str(bit)
    drift = max(abs(s1.top.x - s0.top.x), abs(s1.bottom.x - s0.bottom.x))
    assert drift < SPAN / 100.0


@pytest.mark.parametrize("bit, v", [
    (0, V_W),        # read of ZERO: spikes through ON
    (1, V_W),        # read of ONE: quiet, pinned at the rails
    (0, -V_W / 2),   # half-select that pins ZERO at the rails
])
def test_pulse_solves_each_gap_pair_once(monkeypatch, bit, v):
    calls = []
    solve = crs.solve_crs_divider

    def recording(v_w, v_b, x_top, x_bot, p, vm_guess=None):
        calls.append((v_w, v_b, x_top, x_bot))
        return solve(v_w, v_b, x_top, x_bot, p, vm_guess=vm_guess)

    monkeypatch.setattr(crs, "solve_crs_divider", recording)
    crs_pulse(crs_state_for_bit(bit, P), v, T_PULSE, P, n_samples=40)
    assert calls
    assert all(a != b for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("dt", [0.0, -1e-6])
def test_pair_transient_requires_positive_duration(dt):
    s0 = crs_state_for_bit(0, P)
    with pytest.raises(ValueError):
        step_crs_transient(s0, V_W, dt, P)
    with pytest.raises(ValueError):
        crs_pulse(s0, V_W, dt, P, n_samples=4)


@pytest.mark.parametrize("n_samples", [0, -2])
def test_pulse_requires_a_sample(n_samples):
    with pytest.raises(ValueError):
        crs_pulse(crs_state_for_bit(0, P), V_W, T_PULSE, P,
                  n_samples=n_samples)


@given(v=st.floats(-1.0, 1.0), dt=st.floats(1e-8, 1e-4))
@example(v=1.9294825946148343e-288, dt=8.771430147495266e-05)
@settings(max_examples=20)
def test_pair_gaps_stay_clamped(v, dt):
    s = step_crs_transient(crs_state_for_bit(0, P), v, dt, P)
    for x in (s.top.x, s.bottom.x):
        assert P.x_min <= x <= P.l


# ----------------------------------------------------------------------
# sweep and thresholds
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def crs_sweep():
    return sweep_iv_crs(2.0, 2.0, crs_state_for_bit(0, P), P)


def test_threshold_ordering(crs_sweep):
    _, th = crs_sweep
    assert 0 < th.v_th1 < th.v_th2
    assert th.v_th4 < th.v_th3 < 0


def test_sweep_high_resistive_below_first_threshold(crs_sweep):
    rows, th = crs_sweep
    floor = [abs(j) for v, j, _, _, _ in rows if abs(v) <= 0.9 * th.v_th1]
    assert max(floor) < 1e-9


def test_sweep_visits_all_logic_states(crs_sweep):
    rows, _ = crs_sweep
    labels = {lab for _, _, _, _, lab in rows}
    assert {"0", "1", "on"} <= labels
    assert "indeterminate" not in labels


def test_sweep_write_amplitude_clears_thresholds(crs_sweep):
    # the executor's half-select convention only works if half of the
    # calibrated write amplitude stays below the first threshold while
    # the full amplitude clears the second
    _, th = crs_sweep
    assert V_W / 2 < th.v_th1
    assert V_W > th.v_th2


def test_sweep_subthreshold_raises():
    with pytest.raises(ThresholdExtractionError):
        sweep_iv_crs(0.8, 2.0, crs_state_for_bit(0, P), P, n_samples=300)


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep_iv_crs(-1.0, 2.0, crs_state_for_bit(0, P), P)
    for name, amplitude, rate in (("rate", 2.0, math.nan),
                                  ("rate", 2.0, math.inf),
                                  ("amplitude", math.nan, 2.0)):
        with pytest.raises(ValueError, match=name):
            sweep_iv_crs(amplitude, rate, crs_state_for_bit(0, P), P)
    for frac in (0.0, 1.0, 2.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            sweep_iv_crs(2.0, 2.0, crs_state_for_bit(0, P), P, frac=frac)
