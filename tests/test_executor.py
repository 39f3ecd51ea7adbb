"""Program execution at both fidelity levels, plus pulse calibration."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crsadder import executor
from crsadder.crs import (
    CrsLogicState,
    crs_pulse,
    crs_state_for_bit,
    decode_state,
)
from crsadder.ecm import EcmParams
from crsadder.executor import (
    CalibrationError,
    ExecutionError,
    PulseParams,
    _BitCells,
    _PairCells,
    calibrate_pulse,
    params_fingerprint,
    run_behavioral,
    run_device,
    time_to_flip,
    write_states_csv,
    write_trace_csv,
    write_verdicts_json,
)
from crsadder.logic import int_to_word
from crsadder.microcode import (
    gen_pc_adder,
    gen_tc_adder,
    input_a,
    validate_program,
)


def bits(value, n):
    return [(value >> k) & 1 for k in range(n)]


# ----------------------------------------------------------------------
# behavioral level
# ----------------------------------------------------------------------

def test_behavioral_flagship_example():
    p = gen_pc_adder(2)
    tr = run_behavioral(p, [1, 0], [1, 0], 0)
    assert tr.result_str == "010"
    # the three carry read-outs: c1 stored as '1' (quiet), c2 and c3
    # stored as '0' (spiking)
    reads = [r for r in tr.reads if r.step_index < len(p.steps)]
    assert [r.bit for r in reads] == [1, 0, 0]
    assert [r.spike for r in reads] == [False, True, True]
    assert [r.latch for r in reads] == ["c1", "c2", "c3"]


def test_behavioral_zero_case():
    tr = run_behavioral(gen_tc_adder(2), [0, 0], [0, 0], 0)
    assert tr.result_str == "000"


def test_behavioral_negative_case():
    tr = run_behavioral(gen_pc_adder(2), [1, 1], [1, 1], 0)
    assert tr.result_str == "110"   # -1 + -1 = -2


def test_behavioral_tc_mixed_sign():
    tr = run_behavioral(gen_tc_adder(2), [1, 1], [0, 1], 0)
    assert tr.result_str == "101"   # -1 + -2 = -3


@pytest.mark.parametrize("scheme,gen", [("pc", gen_pc_adder),
                                        ("tc", gen_tc_adder)])
def test_behavioral_exhaustive_small_widths(scheme, gen):
    for n in (1, 2, 3):
        prog = gen(n)
        for av in range(1 << n):
            for bv in range(1 << n):
                for c0 in (0, 1):
                    a, b = bits(av, n), bits(bv, n)
                    tr = run_behavioral(prog, a, b, c0)
                    assert list(tr.result_bits) \
                        == oracles.add_oracle(a, b, c0), (scheme, n, av,
                                                          bv, c0)


@pytest.mark.parametrize("gen", [gen_pc_adder, gen_tc_adder])
def test_behavioral_subtract_exhaustive(gen):
    prog = gen(3, subtract=True)
    for av in range(8):
        for bv in range(8):
            a, b = bits(av, 3), bits(bv, 3)
            tr = run_behavioral(prog, a, b, 0)
            assert list(tr.result_bits) == oracles.sub_oracle(a, b)


def test_behavioral_result_reads_are_destructive():
    prog = gen_pc_adder(2)
    tr = run_behavioral(prog, [1, 0], [1, 0], 0)
    final_reads = [r for r in tr.reads if r.step_index == len(prog.steps)]
    assert len(final_reads) == 3
    assert [r.bit for r in final_reads] == list(tr.result_bits)
    assert all(r.spike == (r.bit == 0) for r in final_reads)


def test_behavioral_operand_checks():
    prog = gen_pc_adder(2)
    with pytest.raises(ExecutionError):
        run_behavioral(prog, [1], [1, 0], 0)
    with pytest.raises(ExecutionError):
        run_behavioral(prog, [1, 2], [1, 0], 0)
    with pytest.raises(ExecutionError):
        run_behavioral(prog, [1, 0], [1, 0], 2)


def test_behavioral_rejects_register_before_latch():
    p = gen_tc_adder(1)
    steps = list(p.steps)
    steps[3], steps[4] = steps[4], steps[3]
    broken = dataclasses.replace(p, steps=tuple(steps))
    with pytest.raises(ExecutionError):
        run_behavioral(broken, [1], [1], 0)


@given(n=st.integers(1, 6), data=st.data())
@settings(max_examples=40)
def test_behavioral_random_widths(n, data):
    av = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    bv = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    scheme = data.draw(st.sampled_from([gen_pc_adder, gen_tc_adder]))
    a, b = int_to_word(av, n), int_to_word(bv, n)
    tr = run_behavioral(scheme(n), a, b, 0)
    assert list(tr.result_bits) == oracles.add_oracle(a, b, 0)


# ----------------------------------------------------------------------
# read-out primitive
# ----------------------------------------------------------------------

def _one_cell(backend, *args):
    """A backend over the one-cell program's cell A0/0/0."""
    return backend(gen_pc_adder(1), *args), "A0/0/0"


def test_readout_behavioral_cases():
    for stored, want in ((0, (0, True, 1)), (1, (1, False, 1))):
        cells, key = _one_cell(_BitCells)
        cells.state[key] = stored
        bit, spike, _ = cells.read(key)
        assert (bit, spike, cells.state[key]) == want


def test_readout_device_cases(params, pulse):
    cells, key = _one_cell(_PairCells, pulse, params)
    cells.states[key] = crs_state_for_bit(0, params)
    bit0, spike0, _ = cells.read(key)
    assert (bit0, spike0) == (0, True)
    assert decode_state(cells.states[key], params.gap_midpoint()) \
        is CrsLogicState.ONE

    cells.states[key] = crs_state_for_bit(1, params)
    bit1, spike1, _ = cells.read(key)
    assert (bit1, spike1) == (1, False)
    assert decode_state(cells.states[key], params.gap_midpoint()) \
        is CrsLogicState.ONE


def test_readout_twice_always_one(params, pulse):
    cells, key = _one_cell(_PairCells, pulse, params)
    cells.states[key] = crs_state_for_bit(0, params)
    cells.read(key)
    bit, spike, _ = cells.read(key)
    assert (bit, spike) == (1, False)


def test_out_of_range_operand_index_is_rejected():
    p = gen_pc_adder(2)
    steps = list(p.steps)
    si = next(i for i, s in enumerate(steps) if s.annotation == "carry")
    d = steps[si].drives[0]
    steps[si] = dataclasses.replace(
        steps[si], drives=(dataclasses.replace(d, wl=input_a(5)),
                           *steps[si].drives[1:]))
    broken = dataclasses.replace(p, steps=tuple(steps))
    assert any("a:5" in msg and "out of range" in msg
               for msg in validate_program(broken))
    with pytest.raises(ExecutionError):
        run_behavioral(broken, [1, 0], [1, 0], 0)


# SHA-256 of (states CSV, verdicts JSON) of run_behavioral at n=4 on
# a = 1101, b = 0110 (bits LSB first below), recorded before the two
# levels shared one interpreter; the files must not change
GOLDEN_N4 = {
    ("pc", False): ("be9cb4fe5bdf8ace7f925667ecdd794a10b61cc1bfca40fe711562d669efbbf4",
                    "c85421a90eca164adeb49a442ac794a22f281e7b889e4c6d3a0778f81a82644d"),
    ("pc", True): ("20128fb0a9dc112b2177525497026b6310b6f14f56288981ebd71d96aeed3da1",
                   "9f27d001ab32607a934e732c81e32266c1bcde2695dcdae122660f265419924b"),
    ("tc", False): ("99cca64ab11db8f879293dd29d6f0a85399fa00a09165cf52e6f01b1b1f4570c",
                    "0884cd8db4a2957724ebc2fc46e7cc907d0333d07b74cefdb9f164ada1b42b0c"),
    ("tc", True): ("83493c5137fae25f0d61e1400a27447ed1a01f4752b05b7113ee7f1dca759571",
                   "d889497ccf00df3c3aae446b5c7ffe9390aea01359a562add88470c478cc25dc"),
}


@pytest.mark.parametrize("scheme,subtract", sorted(GOLDEN_N4))
def test_behavioral_artifacts_golden(tmp_path, scheme, subtract):
    gen = {"pc": gen_pc_adder, "tc": gen_tc_adder}[scheme]
    tr = run_behavioral(gen(4, subtract=subtract), [1, 0, 1, 1],
                        [0, 1, 1, 0], 0)
    states, verdicts = tmp_path / "states.csv", tmp_path / "verdicts.json"
    write_states_csv(tr, states)
    write_verdicts_json(tr, verdicts)
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in (states, verdicts))
    assert digests == GOLDEN_N4[(scheme, subtract)]


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

def test_calibration_postconditions(params, pulse):
    span = params.l - params.x_min
    # full select completes within the pulse window
    assert time_to_flip(pulse.v_w, params) < pulse.t_pulse
    # half select stays put, with bounded gap drift
    for bit in (0, 1):
        for sign in (1, -1):
            s0 = crs_state_for_bit(bit, params)
            s1, _, _ = crs_pulse(s0, sign * pulse.v_w / 2, pulse.t_pulse,
                                 params, n_samples=20)
            assert str(decode_state(s1, params.gap_midpoint())) == str(bit)
            drift = max(abs(s1.top.x - s0.top.x),
                        abs(s1.bottom.x - s0.bottom.x))
            assert drift < span / 100.0


def test_calibration_spike_threshold_separation(params, pulse):
    _, peak_spike, _ = crs_pulse(crs_state_for_bit(0, params), pulse.v_w,
                                 pulse.t_pulse, params, n_samples=40)
    _, peak_quiet, _ = crs_pulse(crs_state_for_bit(1, params), pulse.v_w,
                                 pulse.t_pulse, params, n_samples=40)
    assert peak_quiet < pulse.i_spike < peak_spike
    # two-decade margin on each side
    assert peak_spike / pulse.i_spike >= 100.0
    assert pulse.i_spike / peak_quiet >= 100.0


def test_kinetics_nonlinearity(params, pulse):
    t_full = time_to_flip(pulse.v_w, params)
    t_half = time_to_flip(pulse.v_w / 2, params, t_limit=1e4 * t_full)
    assert t_half > 100.0 * t_full


def test_higher_amplitude_switches_faster(params):
    assert time_to_flip(3.0, params) < time_to_flip(2.6, params)


def test_calibration_failure_reports_attempts():
    # an exchange current this small never completes a full-select
    # switch inside the search bounds, so every amplitude attempt fails
    bad = EcmParams(j0=1e-28)
    with pytest.raises(CalibrationError) as exc_info:
        calibrate_pulse(bad, target_margin=1e6)
    attempts = exc_info.value.report["attempts"]
    assert len(attempts) == 6
    assert all(a["t_full_s"] == float("inf") for a in attempts)


def test_pulse_params_validation():
    with pytest.raises(ValueError):
        PulseParams(v_w=0.0, t_pulse=1e-5, i_spike=1e-6)
    with pytest.raises(ValueError):
        PulseParams(v_w=2.6, t_pulse=-1.0, i_spike=1e-6)
    with pytest.raises(ValueError):
        PulseParams(v_w=2.6, t_pulse=1e-5, i_spike=0.0)


def test_params_fingerprint_tracks_content(params):
    fp1 = params_fingerprint(params)
    fp2 = params_fingerprint(EcmParams(t=301.0))
    assert fp1 != fp2
    assert len(fp1) == 12
    assert fp1 == params_fingerprint(EcmParams())


# ----------------------------------------------------------------------
# device level
# ----------------------------------------------------------------------

def test_device_requires_calibration(params, pulse):
    # the pulse and the cell parameters are required keywords
    with pytest.raises(TypeError):
        run_device(gen_pc_adder(1), [0], [0], 0)
    with pytest.raises(TypeError):
        run_device(gen_pc_adder(1), [0], [0], 0, pulse, params)


def test_device_flagship_pc(device_matrix):
    tr = device_matrix[("pc", 1, 1)]
    assert tr.result_str == "010"
    reads = [r for r in tr.reads if r.step_index < 8]
    assert [r.spike for r in reads] == [False, True, True]
    assert [r.bit for r in reads] == [1, 0, 0]
    # spike reads carry milliamp-scale transients, quiet reads stay at
    # the leakage floor
    quiet, spike1, spike2 = (r.peak_current for r in reads)
    assert spike1 > 1e-3 and spike2 > 1e-3
    assert quiet < 1e-6


def test_device_flagship_tc(device_matrix):
    tr = device_matrix[("tc", 1, 1)]
    assert tr.result_str == "010"
    reads = [r for r in tr.reads if r.step_index < 13]
    # 1-indexed steps 4, 8, 12
    assert [r.step_index for r in reads] == [3, 7, 11]
    assert [r.spike for r in reads] == [False, True, True]
    assert [r.latch for r in reads] == ["c1", "c2", "c3"]


def test_device_writeback_restores_latched_carry(device_matrix):
    # after every write-back step the toggle cell's decoded state equals
    # the register written two cycles earlier
    for av in range(4):
        for bv in range(4):
            tr = device_matrix[("tc", av, bv)]
            latched = {r.latch: r.bit for r in tr.reads if r.latch}
            for rec in tr.steps:
                if rec.annotation != "writeback":
                    continue
                reg_name = f"c{(rec.index - 5) // 4 + 1}"
                assert rec.cell_states["A0/0/0"] \
                    == str(latched[reg_name]), (av, bv, rec.index)


def test_behavioral_writeback_matches_latch():
    for av in range(4):
        for bv in range(4):
            tr = run_behavioral(gen_tc_adder(2), bits(av, 2), bits(bv, 2), 0)
            latched = {r.latch: r.bit for r in tr.reads if r.latch}
            for rec in tr.steps:
                if rec.annotation != "writeback":
                    continue
                reg_name = f"c{(rec.index - 5) // 4 + 1}"
                assert rec.cell_states["A0/0/0"] == latched[reg_name]


def test_device_waveform_columns(device_matrix):
    tr = device_matrix[("pc", 1, 1)]
    assert tr.sample_columns[:3] == ("time_s", "step_index", "annotation")
    assert "v_wl_0_0" in tr.sample_columns
    assert "i_bl_1_2" in tr.sample_columns
    times = [row[0] for row in tr.samples]
    assert times == sorted(times)
    assert len(tr.samples) > 0


# ----------------------------------------------------------------------
# pulse table
# ----------------------------------------------------------------------

KINDS = [(gen, subtract) for gen in (gen_pc_adder, gen_tc_adder)
         for subtract in (False, True)]


def test_pulse_table_is_exact(params, pulse, cached_crs_pulse, monkeypatch):
    """A device run calls crs_pulse once per distinct pulse, and its trace
    equals the one that calls crs_pulse for every pulse, and the one on
    pulses memoized across runs, as the shared fixtures use them."""
    calls = []

    def counted(s, v, dur, ep, n_samples):
        calls.append((s, v, dur, ep, n_samples))
        return crs_pulse(s, v, dur, ep, n_samples=n_samples)

    def uncached(self, s, v, dur, n):
        return executor.crs_pulse(s, v, dur, self.ep, n_samples=n)

    for (gen, subtract), (av, bv) in zip(KINDS, ((1, 1), (2, 3), (0, 1),
                                                 (3, 0))):
        prog, a, b = gen(2, subtract=subtract), bits(av, 2), bits(bv, 2)
        monkeypatch.setattr(executor, "crs_pulse", counted)
        calls.clear()
        tabled = run_device(prog, a, b, 0, pp=pulse, ep=params)
        computed = list(calls)
        assert len(set(computed)) == len(computed)
        with monkeypatch.context() as mp:
            mp.setattr(_PairCells, "_pulse", uncached)
            calls.clear()
            assert run_device(prog, a, b, 0, pp=pulse, ep=params) == tabled
            assert set(calls) == set(computed)
            assert len(calls) > len(computed)
        monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
        assert run_device(prog, a, b, 0, pp=pulse, ep=params) == tabled


@pytest.mark.parametrize("gen,subtract", KINDS)
def test_device_equals_behavioral_exhaustive_n3(params, pulse,
                                               cached_crs_pulse, monkeypatch,
                                               gen, subtract):
    """Every 3-bit operand pair, all four kinds on memoized pulses: result
    bits against the oracle; per-step decoded states, line levels and
    step-read verdicts against the behavioral run."""
    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    prog = gen(3, subtract=subtract)
    n_steps = len(prog.steps)
    for av in range(8):
        for bv in range(8):
            a, b = bits(av, 3), bits(bv, 3)
            dev = run_device(prog, a, b, 0, pp=pulse, ep=params)
            beh = run_behavioral(prog, a, b, 0)
            want = oracles.sub_oracle(a, b) if subtract \
                else oracles.add_oracle(a, b, 0)
            assert list(dev.result_bits) == want, (av, bv)
            assert len(dev.steps) == len(beh.steps) == n_steps
            for d, h in zip(dev.steps, beh.steps):
                assert d.cell_states == {c: str(v) for c, v
                                         in h.cell_states.items()}, \
                    (av, bv, d.index)
                assert (d.wl_levels, d.bl_levels) \
                    == (h.wl_levels, h.bl_levels), (av, bv, d.index)
            dev_v, beh_v = ([(r.step_index, r.cell, r.latch, r.spike, r.bit)
                             for r in tr.reads if r.step_index < n_steps]
                            for tr in (dev, beh))
            assert dev_v == beh_v, (av, bv)


def test_trace_files_roundtrip(tmp_path, device_matrix):
    tr = device_matrix[("pc", 1, 1)]
    trace_path = tmp_path / "trace.csv"
    states_path = tmp_path / "states.csv"
    verdicts_path = tmp_path / "verdicts.json"
    write_trace_csv(tr, trace_path)
    write_states_csv(tr, states_path)
    write_verdicts_json(tr, verdicts_path)

    header = trace_path.read_text().splitlines()[0]
    assert header == ",".join(tr.sample_columns)
    states_header = states_path.read_text().splitlines()[0]
    assert states_header.startswith("step_index,annotation,")
    verdicts = json.loads(verdicts_path.read_text())
    assert len(verdicts) == len(tr.reads)
    assert {"step", "cell", "spike", "bit"} <= set(verdicts[0])
