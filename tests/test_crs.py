"""Anti-serial pair: state machine, decode, divider, pulses, sweep."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from crsadder import crs, ecm
from crsadder.crs import (
    DEFAULT_CRS_AMPLITUDE,
    DIVIDER_KCL_FLOOR,
    DIVIDER_KCL_TOL,
    CRS_MOTION_LIMIT,
    ThresholdExtractionError,
    classify,
    crs_pulse,
    crs_state_for_bit,
    fsm_next,
    solve_crs_divider,
    sweep_iv_crs,
)
from crsadder.ecm import (
    DEFAULT_SWEEP_RATE,
    KVL_TOL,
    ConvergenceError,
    EcmParams,
    march,
)

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
    assert classify(P.x_min, P.l, MID) == "0"
    assert classify(P.l, P.x_min, MID) == "1"
    assert classify(P.x_min, P.x_min, MID) == "on"


def test_decode_rejects_double_hrs():
    # both cells high-ohmic: no logic value; a gap at the threshold
    # itself is high-ohmic
    assert classify(P.l, P.l, MID) is None
    assert classify(MID, MID, MID) is None


def test_classify_total():
    gaps = [P.x_min + SPAN * k / 8 for k in range(9)]
    labels = {(True, False): "0", (False, True): "1",
              (True, True): "on", (False, False): None}
    for xt in gaps:
        for xb in gaps:
            assert classify(xt, xb, MID) == labels[xt < MID, xb < MID]


def test_bit_encoding_roundtrip():
    for bit in (0, 1):
        s = crs_state_for_bit(bit, P)
        assert classify(*s, MID) == str(bit)


# ----------------------------------------------------------------------
# voltage divider
# ----------------------------------------------------------------------

def assert_tolerances(v_w, v_b, result):
    """The divider's stated contract: node KCL to 1e-12 of the larger
    branch current (or to the absolute floor where that underflows),
    loop KVL, recorded as a cell's kvl_residual, to KVL_TOL of the line
    difference (or 1e-300), v_m between the lines, j the bottom cell
    current."""
    v_m, j, sol_t, sol_b = result
    scale = max(abs(sol_t.i_total), abs(sol_b.i_total))
    assert abs(sol_t.i_total + sol_b.i_total) <= max(
        DIVIDER_KCL_TOL * scale, DIVIDER_KCL_FLOOR)
    assert max(abs(sol_t.kvl_residual), abs(sol_b.kvl_residual)) <= max(
        KVL_TOL * abs(v_w - v_b), 1e-300)
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
    assert_tolerances(v_w, v_b,
                      solve_crs_divider(v_w, v_b, x_top, x_bot, P))


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("v", [V_W / 2, -V_W / 2])
def test_divider_half_select_meets_tolerance(bit, v):
    # stored states sit exactly at the rails (x_min / l), where the middle
    # node lies within about 1e-7 of the low-ohmic cell's line
    s = crs_state_for_bit(bit, P)
    for v_w, v_b in ((v, 0.0), (0.0, -v), (v / 2, -v / 2)):
        assert_tolerances(v_w, v_b, solve_crs_divider(v_w, v_b, *s, P))


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("v", [1e-290, 1e-300, 5e-324])
def test_divider_at_subnormal_scale_line_differences(bit, v):
    # cell currents of about 1e-307 A and below: the relative tolerance
    # underflows and the absolute floor decides
    s = crs_state_for_bit(bit, P)
    for v_w, v_b in ((v, 0.0), (0.0, -v), (-v, 0.0), (v / 2, -v / 2)):
        assert_tolerances(v_w, v_b, solve_crs_divider(v_w, v_b, *s, P))


gaps = st.one_of(st.sampled_from([P.x_min, P.l]), st.floats(P.x_min, P.l))
line_differences = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-1e-3, 1e-3),
    st.sampled_from([V_W, -V_W, V_W / 2, -V_W / 2, 1e-9, -1e-12]))


@given(x_top=gaps, x_bot=gaps, v=line_differences,
       common=st.sampled_from([0.0, V_W / 2, -V_W / 2]))
def test_divider_meets_kcl_tolerance(x_top, x_bot, v, common):
    v_w, v_b = common + v / 2, common - v / 2
    assert_tolerances(v_w, v_b,
                      solve_crs_divider(v_w, v_b, x_top, x_bot, P))


@given(x_top=gaps, x_bot=gaps, v=line_differences)
@example(x_top=5e-9, x_bot=5e-9, v=-V_W)
@example(x_top=P.x_min, x_bot=P.x_min, v=-V_W / 2)
def test_divider_mirror_is_exact(x_top, x_bot, v):
    # gaps and lines swapped, the divider runs the same float operations,
    # on a tie too: crs_pulse's mirror identity rests on this
    vm, _, s_top, s_bot = solve_crs_divider(v / 2, -v / 2, x_top, x_bot, P)
    assert solve_crs_divider(-v / 2, v / 2, x_bot, x_top, P) \
        == (vm, s_top.i_total, s_bot, s_top)


def test_divider_that_cannot_converge_raises(monkeypatch):
    # a branch current that jumps across zero, by a step that differs
    # between the two cells, leaves KCL no root; the divider must say so
    # instead of returning its last iterate
    def jumping_branch(eta1, sign, r_ion, g_tu, p):
        i = sign * r_ion * (1e-12 if abs(eta1) > 0.1 else -1e-12)
        return i, 0.5 * eta1, eta1, i, 1.0, 1e-9

    monkeypatch.setattr(crs, "evaluate_branch", jumping_branch)
    with pytest.raises(ConvergenceError):
        solve_crs_divider(V_W / 2, -V_W / 2, P.x_min, P.l, P)


RANGE_GAPS = [(P.x_min, P.l), (P.l, P.x_min), (5e-9, 5e-9), (P.x_min, P.x_min)]


def solved_or_past_edge(v, v_w, v_b, x_top, x_bot, guess):
    """The divider's result meeting its tolerances, or None where it
    raised ConvergenceError at or past 73.4 V across the pair."""
    try:
        got = solve_crs_divider(v_w, v_b, x_top, x_bot, P, vm_guess=guess)
    except ConvergenceError:
        assert v >= 73.4
        return None
    assert_tolerances(v_w, v_b, got)
    return got


@pytest.mark.parametrize("x_top,x_bot", RANGE_GAPS)
def test_divider_range(x_top, x_bot):
    # 2.6 V to 80 V across the pair, either polarity, lines centred on
    # 0 V or the bit line grounded, cold started and warm started from
    # the lines' midpoint and from the solution.  Below 73.4 V every solve
    # meets both tolerances; from there the far cell's first iterate, at
    # half its cell voltage, may leave the float range as a lone cell's
    # cold solve does, and ConvergenceError is the only other outcome
    for k in range(26, 801, 6):
        v = k / 10
        for v_w, v_b in ((v / 2, -v / 2), (-v / 2, v / 2), (v, 0.0),
                         (-v, 0.0)):
            cold = solved_or_past_edge(v, v_w, v_b, x_top, x_bot, None)
            solved_or_past_edge(v, v_w, v_b, x_top, x_bot, 0.5 * (v_w + v_b))
            if cold is not None:
                solved_or_past_edge(v, v_w, v_b, x_top, x_bot, cold[0])


@settings(max_examples=4)
@given(x_top=gaps, x_bot=gaps, v=st.floats(-3.0, 3.0).filter(
    lambda v: abs(v) > 1e-3))
@example(x_top=P.x_min, x_bot=P.l, v=V_W)
@example(x_top=P.l, x_bot=P.x_min, v=-V_W / 2)
def test_divider_matches_independent_bisection(x_top, x_bot, v):
    # each oracle call takes about a second; v_m is compared on the scale
    # of the line difference, as it can sit at 0 V between symmetric lines
    v_m, j, _, _ = solve_crs_divider(v / 2, -v / 2, x_top, x_bot, P)
    ora = oracles.solve_pair_oracle(v / 2, -v / 2, x_top, x_bot)
    assert abs(v_m - ora["v_m"]) <= 1e-6 * abs(v)
    assert abs(j - ora["j"]) <= 1e-6 * max(abs(j), abs(ora["j"]))


def test_divider_equal_rails_is_equilibrium():
    v_m, j, sol_t, sol_b = solve_crs_divider(1.3, 1.3, 5e-9, 1e-9, P)
    assert j == 0.0 and sol_t.i_total == 0.0 and sol_b.i_total == 0.0


def test_series_current_storage_leakage():
    # both stored states must look high-resistive at read-level bias
    for bit in (0, 1):
        s = crs_state_for_bit(bit, P)
        assert abs(solve_crs_divider(0.61 / 2, -0.61 / 2, *s, P)[1]) < 1e-12


# ----------------------------------------------------------------------
# pair transients
# ----------------------------------------------------------------------

def test_pair_zero_drive_holds():
    s0 = crs_state_for_bit(0, P)
    s1, _, _ = crs_pulse(s0, 0.0, 1.0, P, n_samples=1)
    assert s1 == s0


def test_full_write_passes_through_on():
    s0 = crs_state_for_bit(0, P)
    s1, peak, samples = crs_pulse(s0, V_W, T_PULSE, P, n_samples=60)
    assert classify(*s1, MID) == "1"
    labels = [classify(xt, xb, MID) for *_, xt, xb, _, _ in samples]
    assert "on" in labels
    # the ON interval carries the write spike
    assert peak > 1e-3
    # each row's running peaks bound every current so far, and the
    # bottom cell's last one is the pulse's peak
    for k, (*_, pk_top, pk_bot) in enumerate(samples):
        assert pk_top >= max(abs(r[2]) for r in samples[:k + 1])
        assert pk_bot >= max(abs(r[3]) for r in samples[:k + 1])
    assert samples[-1][-1] == peak


def test_read_of_one_is_quiet():
    s0 = crs_state_for_bit(1, P)
    s1, peak, _ = crs_pulse(s0, V_W, T_PULSE, P, n_samples=60)
    assert classify(*s1, MID) == "1"
    assert peak < 1e-6


def test_negative_write_returns_to_zero():
    s0 = crs_state_for_bit(1, P)
    s1, peak, _ = crs_pulse(s0, -V_W, T_PULSE, P, n_samples=60)
    assert classify(*s1, MID) == "0"
    assert peak > 1e-3


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_half_select_holds_state(bit, sign):
    s0 = crs_state_for_bit(bit, P)
    s1, _, _ = crs_pulse(s0, sign * V_W / 2, T_PULSE, P, n_samples=30)
    assert classify(*s1, MID) == str(bit)
    drift = max(abs(a - b) for a, b in zip(s1, s0))
    assert drift < SPAN / 100.0


@pytest.mark.parametrize("bit, v", [
    (0, V_W),        # read of ZERO: spikes through ON
    (1, V_W),        # read of ONE: quiet, pinned at the rails
    (0, -V_W / 2),   # half-select that pins ZERO at the rails
])
def test_pulse_solves_each_gap_pair_once(monkeypatch, bit, v):
    calls = []
    solve = crs.solve_crs_divider

    def recording(v_w, v_b, x_top, x_bot, p, vm_guess=None, eta_guess=None):
        calls.append((v_w, v_b, x_top, x_bot))
        return solve(v_w, v_b, x_top, x_bot, p, vm_guess=vm_guess,
                     eta_guess=eta_guess)

    monkeypatch.setattr(crs, "solve_crs_divider", recording)
    crs_pulse(crs_state_for_bit(bit, P), v, T_PULSE, P, n_samples=40)
    assert calls
    assert all(a != b for a, b in zip(calls, calls[1:]))


def test_full_select_pulse_makes_no_nested_cell_solves(monkeypatch):
    # every cell solve of a pulse is one moving cell's backward-Euler
    # substep from the divider solve before it, warm-started from that
    # cell's eta1: at most one per moving cell per divider call, and no
    # solve inside another.  The bounds are the counts of a read of ZERO
    # (383 cell solves when each substep iterate was a DC solve)
    events = []
    divider, cell = crs.solve_crs_divider, ecm.solve_cell_dc

    def recording_divider(*args, **kwargs):
        out = divider(*args, **kwargs)
        events.append(("divider", out))
        return out

    def recording_cell(v_cell, x, p, eta_guess=None, dt=0.0):
        events.append(("cell", (v_cell, x, eta_guess, dt)))
        return cell(v_cell, x, p, eta_guess, dt)

    monkeypatch.setattr(crs, "solve_crs_divider", recording_divider)
    monkeypatch.setattr(ecm, "solve_cell_dc", recording_cell)
    crs_pulse(crs_state_for_bit(0, P), V_W, T_PULSE, P, n_samples=40)
    moving = []
    for kind, data in events:
        if kind == "divider":
            moving = [(s.v_cell, s.x, s.eta1) for s in data[2:]]
        else:
            assert data[3] > 0.0
            moving.remove(data[:3])
    n_cell = sum(kind == "cell" for kind, _ in events)
    assert n_cell <= 161 and len(events) - n_cell <= 110


@given(x_top=gaps, x_bot=gaps, v=line_differences)
def test_divider_warm_start_from_an_eta_pair(x_top, x_bot, v):
    # the pair maps to the low and far cells by top/bottom identity:
    # seeded with its own solution's etas the divider meets its
    # tolerances, and a guess outside both brackets is ignored
    cold = solve_crs_divider(v / 2, -v / 2, x_top, x_bot, P)
    etas = (cold[2].eta1, cold[3].eta1)
    assert_tolerances(v / 2, -v / 2, solve_crs_divider(
        v / 2, -v / 2, x_top, x_bot, P, eta_guess=etas))
    assert_tolerances(v / 2, -v / 2, solve_crs_divider(
        v / 2, -v / 2, x_top, x_bot, P, eta_guess=etas[::-1]))
    assert solve_crs_divider(v / 2, -v / 2, x_top, x_bot, P,
                             eta_guess=(1e3, -1e3)) == cold


@pytest.mark.parametrize("dt", [0.0, -1e-6])
def test_pair_transient_requires_positive_duration(dt):
    s0 = crs_state_for_bit(0, P)
    with pytest.raises(ValueError):
        march(s0, crs._PairSolve(V_W, P), dt, P, CRS_MOTION_LIMIT)
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
    xs = march(crs_state_for_bit(0, P), crs._PairSolve(v, P), dt, P,
               CRS_MOTION_LIMIT)
    for x in xs:
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


def test_sweep_rows_match_cold_solves(crs_sweep):
    # a row samples its march's own divider solve, warm started where the
    # gaps moved: a cold solve at the row's gaps gives the same current
    # to 1e-10 and the same thresholds
    rows, th = crs_sweep
    cold = [(v, solve_crs_divider(v / 2, -v / 2, xt, xb, P)[1], xt, xb, lab)
            for v, _, xt, xb, lab in rows]
    for row, ref in zip(rows, cold):
        assert abs(row[1] - ref[1]) <= 1e-10 * abs(ref[1]), row
    assert crs._extract_thresholds(cold, 0.5) == th


def test_sweep_solves_each_unmoved_row_once(monkeypatch):
    # a row where nothing moved reuses the march's solve; the bound is the
    # default sweep's count with that reuse (2,545 when each row re-solved)
    calls = []
    divider = crs.solve_crs_divider

    def counted(*args, **kwargs):
        calls.append(args)
        return divider(*args, **kwargs)

    monkeypatch.setattr(crs, "solve_crs_divider", counted)
    sweep_iv_crs(DEFAULT_CRS_AMPLITUDE, DEFAULT_SWEEP_RATE,
                 crs_state_for_bit(0, P), P)
    assert len(calls) <= 1787


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
