"""Top-level acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE k: ... pass`` line on success
(visible with -s; the -v listing gives the same per-criterion verdict).
Tolerances and runtime budgets are pinned as module constants.
"""

import itertools
import random
import re
import time

from crsadder.crs import (
    crs_state_for_bit,
    fsm_next,
    solve_crs_divider,
    sweep_iv_crs,
)
from crsadder.ecm import EcmState, extract_unit_landmarks, sweep_iv_unit
from crsadder.executor import (
    _half_select_drift,
    run_behavioral,
    run_device,
    time_to_flip,
)
from crsadder.microcode import comparison_table, gen_pc_adder, gen_tc_adder

from oracles import add_oracle, majority_bit

SET_WINDOW = (1.1, 1.5)          # V
RESET_WINDOW = (-0.7, -0.3)      # V
LEAK_MAX = 1e-9                  # A, stored states below first threshold
DRIFT_FRAC_MAX = 0.01            # of (l - x_min), half select
BUDGET_BEHAVIORAL_S = 10.0
BUDGET_UNIT_SWEEP_S = 30.0
BUDGET_FLAGSHIP_S = 300.0
BUDGET_CROSS_LEVEL_S = 1800.0


def _report(k, label):
    print(f"ACCEPTANCE {k}: {label} ... pass")


def _word(value, n):
    return [(value >> k) & 1 for k in range(n)]


TRIPLES = list(itertools.product((0, 1), repeat=3))


def test_criterion_01_carry_identity():
    # the cell holds c; the applied pair is (wl, bl) = (a, NOT b)
    for a, b, c in TRIPLES:
        assert fsm_next(c, a, 1 - b) == majority_bit(a, b, c)
    _report(1, "carry update equals majority on all 8 triples")


def test_criterion_02_sum_pipeline():
    # (a, b), then (b, carry-out) on a cell that held c
    for a, b, c in TRIPLES:
        s = fsm_next(fsm_next(c, a, b), b, fsm_next(c, a, 1 - b))
        assert s == a ^ b ^ c
    _report(2, "two-stage sum update equals a XOR b XOR c on all 8 triples")


def test_criterion_03_state_update_table():
    expected = {
        (0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 1, (0, 1, 1): 0,
        (1, 0, 0): 1, (1, 0, 1): 0, (1, 1, 0): 1, (1, 1, 1): 1,
    }
    for (z, wl, bl), z_next in expected.items():
        assert fsm_next(z, wl, bl) == z_next
    _report(3, "state-update truth table matches on all 8 rows")


def test_criterion_04_behavioral_adders():
    t0 = time.perf_counter()
    for gen in (gen_pc_adder, gen_tc_adder):
        for n in (1, 2, 3, 4):
            prog = gen(n)
            for av in range(1 << n):
                for bv in range(1 << n):
                    a, b = _word(av, n), _word(bv, n)
                    for c0 in (0, 1):
                        tr = run_behavioral(prog, a, b, c0)
                        assert list(tr.result_bits) == add_oracle(a, b, c0)
        prog = gen(8)
        rng = random.Random(823543)
        for _ in range(1000):
            a = _word(rng.randrange(256), 8)
            b = _word(rng.randrange(256), 8)
            for c0 in (0, 1):
                tr = run_behavioral(prog, a, b, c0)
                assert list(tr.result_bits) == add_oracle(a, b, c0)
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_BEHAVIORAL_S
    _report(4, "behavioral adders exact for n<=4 exhaustive and n=8 "
               f"random, both schemes ({elapsed:.1f} s)")


def test_criterion_05_cost_formulas():
    for n in range(1, 65):
        pc, tc = gen_pc_adder(n), gen_tc_adder(n)
        assert len(pc.steps) == 2 * (n + 1) + 2
        assert len(set(pc.used_cells)) == 2 * (n + 1)
        assert len(tc.steps) == 4 * n + 5
        assert len(set(tc.used_cells)) == n + 2
    _report(5, "generated programs meet the device and cycle formulas "
               "for n in [1, 64]")


def test_criterion_06_comparison_rows():
    expected = {
        1: [("Lehtonen", 8, 136), ("Kvatinsky serial", 6, 29),
            ("Kvatinsky parallel", 9, 23), ("PC adder", 4, 6),
            ("TC adder", 3, 9)],
        2: [("Lehtonen", 11, 224), ("Kvatinsky serial", 9, 58),
            ("Kvatinsky parallel", 18, 28), ("PC adder", 6, 8),
            ("TC adder", 4, 13)],
        16: [("Lehtonen", 53, 1456), ("Kvatinsky serial", 51, 464),
             ("Kvatinsky parallel", 144, 98), ("PC adder", 34, 36),
             ("TC adder", 18, 69)],
    }
    for n, rows in expected.items():
        got = [(r.scheme, r.devices, r.cycles) for r in comparison_table(n)]
        assert got == rows
    _report(6, "cost table rows exact for n in {1, 2, 16}")


def test_criterion_07_unit_landmarks(params):
    t0 = time.perf_counter()
    rows = sweep_iv_unit(1.5, 2.0, EcmState(params.l), params)
    v_set, v_reset = extract_unit_landmarks(rows, params)
    elapsed = time.perf_counter() - t0
    assert SET_WINDOW[0] <= v_set <= SET_WINDOW[1]
    assert RESET_WINDOW[0] <= v_reset <= RESET_WINDOW[1]
    assert elapsed < BUDGET_UNIT_SWEEP_S
    _report(7, f"unit cell landmarks v_set={v_set:.3f} V, "
               f"v_reset={v_reset:.3f} V inside the windows "
               f"({elapsed:.1f} s)")


def test_criterion_08_crs_thresholds(params):
    _, th = sweep_iv_crs(2.0, 2.0, crs_state_for_bit(0, params), params)
    assert 0.0 < th.v_th1 < th.v_th2
    assert th.v_th4 < th.v_th3 < 0.0
    for bit in (0, 1):
        xs = crs_state_for_bit(bit, params)
        for v in (0.9 * th.v_th1, 0.9 * th.v_th3):
            j = solve_crs_divider(v / 2, -v / 2, *xs, params)[1]
            assert abs(j) < LEAK_MAX
    _report(8, "both stored states leak below "
               f"{LEAK_MAX:g} A inside the first thresholds; ordering "
               f"0 < {th.v_th1:.2f} < {th.v_th2:.2f}, "
               f"{th.v_th4:.2f} < {th.v_th3:.2f} < 0")


def test_criterion_09_kinetics_nonlinearity(params, pulse):
    t_full = time_to_flip(pulse.v_w, params)
    assert t_full <= pulse.t_pulse
    ok, drift = _half_select_drift(0.5 * pulse.v_w, pulse.t_pulse, params)
    assert ok, "half-selected cell changed decoded state"
    assert drift < DRIFT_FRAC_MAX
    _report(9, f"full select flips in {t_full:.2e} s <= t_pulse; "
               f"half-select drift {drift:.2e} of span "
               f"(< {DRIFT_FRAC_MAX})")


def _latched_spikes(trace):
    latched = [r for r in trace.reads if r.latch]
    latched.sort(key=lambda r: r.step_index)
    return [r.spike for r in latched]


def test_criterion_10_device_flagship(params, pulse):
    t0 = time.perf_counter()
    patterns = {}
    for scheme, gen in (("pc", gen_pc_adder), ("tc", gen_tc_adder)):
        tr = run_device(gen(2), [1, 0], [1, 0], 0, pp=pulse, ep=params)
        assert tr.result_str == "010"
        patterns[scheme] = _latched_spikes(tr)
    elapsed = time.perf_counter() - t0
    for scheme, spikes in patterns.items():
        assert spikes == [False, True, True], scheme
    assert elapsed < BUDGET_FLAGSHIP_S
    _report(10, "01 + 01 -> s=010 at device level, carry reads "
                f"(no-spike, spike, spike), both schemes "
                f"({elapsed:.0f} s)")


def test_criterion_11_cross_level_equivalence(request, behavioral_matrix):
    t0 = time.perf_counter()
    device_matrix = request.getfixturevalue("device_matrix")
    elapsed = time.perf_counter() - t0
    for key, dev in device_matrix.items():
        beh = behavioral_matrix[key]
        assert dev.result_bits == beh.result_bits, key
        scheme, av, bv = key
        assert list(dev.result_bits) == add_oracle(_word(av, 2),
                                                   _word(bv, 2), 0)
        # every step: decoded states, line levels and read verdicts
        assert len(dev.steps) == len(beh.steps), key
        for d, b in zip(dev.steps, beh.steps):
            assert d.cell_states == {c: str(v)
                                     for c, v in b.cell_states.items()}, \
                (key, d.index)
            assert (d.wl_levels, d.bl_levels) == (b.wl_levels, b.bl_levels), \
                (key, d.index)
        assert [_verdict(r) for r in _step_reads(dev)] \
            == [_verdict(r) for r in _step_reads(beh)], key
    assert elapsed < BUDGET_CROSS_LEVEL_S
    _report(11, "device-level results, per-step states, line levels and "
                "read verdicts equal behavioral ones for all 16 pairs, "
                f"both schemes ({elapsed:.0f} s)")


def _step_reads(trace):
    return [r for r in trace.reads if r.step_index < len(trace.steps)]


def _verdict(r):
    return (r.step_index, r.cell, r.latch, r.spike, r.bit)


CELL_RE = re.compile(r"A(\d+)/(\d+)/(\d+)")


def test_criterion_12_half_select_safety(device_matrix):
    changes = 0
    for key, trace in device_matrix.items():
        prev = {cell: "0" for cell in trace.steps[0].cell_states}
        for rec in trace.steps:
            for cell, state in rec.cell_states.items():
                assert state in ("0", "1"), (key, rec.index, cell, state)
                if state == prev[cell]:
                    continue
                changes += 1
                arr, _, bl = CELL_RE.fullmatch(cell).groups()
                wl_lvl = rec.wl_levels[f"A{arr}"]
                bl_lvl = rec.bl_levels[f"A{arr}/{bl}"]
                assert wl_lvl in (0, 1) and bl_lvl in (0, 1) \
                    and wl_lvl != bl_lvl, \
                    (key, rec.index, cell, wl_lvl, bl_lvl)
            prev = rec.cell_states
    assert changes > 0     # the check must have seen real transitions
    _report(12, f"all {changes} decoded-state changes across 32 runs "
                "occurred under full select only")


SIGNALS = {
    "0": lambda a, b: 0, "1": lambda a, b: 1,
    "a": lambda a, b: a, "b": lambda a, b: b,
    "not_a": lambda a, b: 1 - a, "not_b": lambda a, b: 1 - b,
}
INPUTS = [(0, 0), (0, 1), (1, 0), (1, 1)]
XOR = (0, 1, 1, 0)
XNOR = (1, 0, 0, 1)


def test_criterion_13_boolean_coverage():
    reachable = set()
    for z0 in (0, 1):
        for wf in SIGNALS.values():
            for bf in SIGNALS.values():
                reachable.add(tuple(fsm_next(z0, wf(a, b), bf(a, b))
                                    for a, b in INPUTS))
    all_funcs = set(itertools.product((0, 1), repeat=4))
    assert reachable == all_funcs - {XOR, XNOR}
    assert len(reachable) == 14

    # two steps and a second cell: compute the carry alongside the
    # intermediate sum, destructively read it, feed it back as the
    # bitline of the second update
    for c0, want in ((0, XOR), (1, XNOR)):
        got = []
        for a, b in INPUTS:
            s_mid = fsm_next(c0, a, b)
            carry_cell = fsm_next(c0, a, 1 - b)
            got.append(fsm_next(s_mid, b, carry_cell))
        assert tuple(got) == want
    _report(13, "single-step programs reach exactly 14 of 16 two-input "
                "functions; XOR/XNOR need the two-step read-out route")
