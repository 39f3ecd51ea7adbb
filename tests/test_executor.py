"""Program execution at both fidelity levels, plus pulse calibration."""

import dataclasses
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crsadder import executor, microcode
from crsadder.crs import (
    classify,
    crs_pulse,
    crs_state_for_bit,
)
from crsadder.ecm import EcmParams
from crsadder.executor import (
    SAMPLES_PER_PULSE,
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
    CONST0,
    CONST1,
    GROUND,
    ArrayDrive,
    CellAddr,
    Program,
    ReadDirective,
    Step,
    gen_pc_adder,
    gen_tc_adder,
    input_a,
    input_b,
    read_forward,
    reg,
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


@pytest.mark.parametrize("level", ["behavioral", "device"])
def test_operand_bits_must_be_ints(level, params, pulse):
    def run(a, b, c0):
        if level == "behavioral":
            return run_behavioral(gen_pc_adder(1), a, b, c0)
        return run_device(gen_pc_adder(1), a, b, c0, pp=pulse, ep=params)

    for a, b, c0 in (([1.0], [0], 0), ([1], [0.0], 0), ([1], [0], 1.0)):
        with pytest.raises(ExecutionError, match="must be 0/1"):
            run(a, b, c0)
    if level == "behavioral":
        assert run([True], [False], True) == run([1], [0], 1)


def test_program_is_lowered_once(monkeypatch, params, pulse,
                                 cached_crs_pulse):
    calls = []

    def counted(p):
        calls.append(p)
        return validate_program(p)

    monkeypatch.setattr(microcode, "validate_program", counted)
    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    p = gen_pc_adder(1)
    run_behavioral(p, [1], [0], 0)
    run_device(p, [0], [1], 1, pp=pulse, ep=params)
    run_behavioral(p, [1], [1], 1)
    assert len(calls) == 1
    broken = dataclasses.replace(p, result_cells=p.result_cells[:1])
    for _ in range(2):
        with pytest.raises(ExecutionError, match="invalid program"):
            run_behavioral(broken, [1], [0], 0)
    assert len(calls) == 3


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
    cells.state[key] = "0"
    bit0, spike0, _ = cells.read(key)
    assert (bit0, spike0, cells.state[key]) == (0, True, "1")

    cells.state[key] = "1"
    bit1, spike1, _ = cells.read(key)
    assert (bit1, spike1, cells.state[key]) == (1, False, "1")


def test_readout_twice_always_one(params, pulse):
    cells, key = _one_cell(_PairCells, pulse, params)
    cells.state[key] = "0"
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


# SHA-256 of the repr of every StepRecord (line levels and cell states)
# and ReadRecord of run_behavioral on fixed words, recorded before
# programs were lowered to slot tables
GOLDEN_OPERANDS = {8: (0b10110101, 0b01101110),
                   64: (0xB7E151628AED2A6B, 0x243F6A8885A308D3)}
GOLDEN_LINES = {
    (8, "pc", False): "e2d5e66b6021f1279d8cfeac8cf7687998023e3203e3d944ed3e70eead4cccfe",
    (8, "pc", True): "8b37349c8b5118d3a4e11b4b839b1e1b617b8c4e06259867716346eed97d69b1",
    (8, "tc", False): "293a9d1e65e0a8f508dea14bf13f6168fe7baebeeb478bdca8ad9d7ecfc06df3",
    (8, "tc", True): "e8118fa8a154dd09aaa1cab18f673c8a72499da091b4b8af6eaf27373f87f099",
    (64, "pc", False): "0902bb9568845306837deeb38c04194038384d749ae671817e0cb14c9035f6cd",
    (64, "pc", True): "4f6fae6c47b92ea2b0ba064398d936e1ed9eae5d18ea04cdf40429e6f91f4a62",
    (64, "tc", False): "adde77114fa64a25c1d51afebb79d133859b24f6967a756984034a178a00295e",
    (64, "tc", True): "30428e00ab9117921949abcdb62b411c6160e8857541d005a281bcf60b3edd86",
}


@pytest.mark.parametrize("n,scheme,subtract", sorted(GOLDEN_LINES))
def test_behavioral_line_levels_golden(n, scheme, subtract):
    gen = {"pc": gen_pc_adder, "tc": gen_tc_adder}[scheme]
    a, b = GOLDEN_OPERANDS[n]
    tr = run_behavioral(gen(n, subtract=subtract), bits(a, n), bits(b, n), 0)
    h = hashlib.sha256()
    for rec in tr.steps + tr.reads:
        h.update(repr(rec).encode())
    assert h.hexdigest() == GOLDEN_LINES[(n, scheme, subtract)]


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
            assert classify(*s1, params.gap_midpoint()) == str(bit)
            drift = max(abs(a - b) for a, b in zip(s1, s0))
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
    # switch inside the search bounds, so every amplitude attempt fails:
    # six from the seed up, then five down
    bad = EcmParams(j0=1e-28)
    with pytest.raises(CalibrationError) as exc_info:
        calibrate_pulse(bad, target_margin=1e6)
    attempts = exc_info.value.report["attempts"]
    assert len(attempts) == 11
    assert all(a["t_full_s"] == float("inf") for a in attempts)
    # the message names the lowest and highest amplitude tried
    tried = [a["v_w"] for a in attempts]
    bounds = re.search(r"in \[(.*), (.*)\] V", str(exc_info.value)).groups()
    assert bounds == (f"{min(tried):.6g}", f"{max(tried):.6g}") \
        == ("1.6", "3.6")


def test_calibration_searches_below_a_high_seed(params):
    """Every amplitude from 5.0 V up fails, so the search turns down
    from the seed and calibrates at 4.4 V."""
    pp = calibrate_pulse(params, v_seed=5.0)
    assert pp.v_w == pytest.approx(4.4)


def test_calibration_rejects_a_half_window_off_its_rail(params, monkeypatch):
    """At 0.3x the flip time the +V_w half window from ZERO stops short of
    ONE: a run on that pulse raises at a read-and-forward step, so every
    attempt records the miss and calibration fails."""
    short = calibrate_pulse(params)
    short = dataclasses.replace(short, t_pulse=0.3 * short.t_pulse)
    with pytest.raises(ExecutionError, match=r"cell A1/0/0 missed its rail: "
                                             r"the \+2\.6 V pulse"):
        run_device(gen_pc_adder(2), [0, 0], [1, 0], 0, pp=short, ep=params)
    flip = executor.time_to_flip
    monkeypatch.setattr(executor, "time_to_flip",
                        lambda v, ep: 0.3 * flip(v, ep))
    with pytest.raises(CalibrationError) as exc_info:
        calibrate_pulse(params)
    attempts = exc_info.value.report["attempts"]
    assert len(attempts) == 11
    for a in attempts:
        assert f"ZERO at {a['v_w']:+.6g} V, half window" in a["rail_misses"]


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


# SHA-256 of the repr of the session pulse, then of the 32 device_matrix
# traces in key order (samples included), recorded with each cell's
# substep as one bracketed Newton in eta1 along y(eta1), the divider
# warm-started from the last eta1 pair, and cells on an undriven
# (ground) line left floating: no half-select pulses, so bitline
# currents carry no half-select leakage and read cells no drift; the
# pulse's i_spike judged on the run's 40-sample marches (the traces
# hashed after it are unchanged by that)
GOLDEN_DEVICE_MATRIX = \
    "dcdd77b53d7f45b884b0d9d73f327ac37a446a7b80a2715ca2b940f2b0e23aea"


def test_device_matrix_golden(pulse, device_matrix):
    h = hashlib.sha256(repr(pulse).encode())
    for key in sorted(device_matrix):
        h.update(repr(device_matrix[key]).encode())
    assert h.hexdigest() == GOLDEN_DEVICE_MATRIX


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
    """A device run calls crs_pulse at most once per voltage, always from
    ZERO over the full window, and its trace equals the one that calls
    crs_pulse from the cell's rail for every pulse at that pulse's own
    width and sample count, and the one on pulses memoized across runs,
    as the shared fixtures use them."""
    calls = []
    rails = [crs_state_for_bit(0, params), crs_state_for_bit(1, params)]

    def counted(s, v, dur, ep, n_samples):
        calls.append((s, v, dur, ep, n_samples))
        return crs_pulse(s, v, dur, ep, n_samples=n_samples)

    def uncached(self, key, v, n):
        dur = self.pp.t_pulse * (1.0 if n == SAMPLES_PER_PULSE else 0.5)
        start = crs_state_for_bit(int(self.state[key]), self.ep)
        xs, peak, rows = executor.crs_pulse(start, v, dur, self.ep,
                                            n_samples=n)
        self.state[key] = str(rails.index(xs))
        return peak, [row[3] for row in rows]

    def canonical(s, v):
        return (s[::-1], -v) if s[0] > s[1] else (s, v)

    for (gen, subtract), (av, bv) in zip(KINDS, ((1, 1), (2, 3), (0, 1),
                                                 (3, 0))):
        prog, a, b = gen(2, subtract=subtract), bits(av, 2), bits(bv, 2)
        monkeypatch.setattr(executor, "crs_pulse", counted)
        calls.clear()
        tabled = run_device(prog, a, b, 0, pp=pulse, ep=params)
        starts = [(s, v) for s, v, *_ in calls]
        assert len({v for _, v in starts}) == len(starts)
        assert all(s == rails[0] for s, _ in starts)
        assert {c[2:] for c in calls} == {
            (pulse.t_pulse, params, SAMPLES_PER_PULSE)}
        with monkeypatch.context() as mp:
            mp.setattr(_PairCells, "_pulse", uncached)
            calls.clear()
            assert run_device(prog, a, b, 0, pp=pulse, ep=params) == tabled
            assert {canonical(s, v) for s, v, *_ in calls} == set(starts)
            assert len(calls) > len(starts)
        monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
        assert run_device(prog, a, b, 0, pp=pulse, ep=params) == tabled


def test_pulse_missing_its_rail_raises(pulse):
    """At 330 K the 300 K pulse leaves pc n=2 cells off their rail: the
    run raises rather than return wrong bits (0 + 1 gave (0, 0, 0)).
    All 32 tc n=2 runs on that cell and pulse stay right."""
    warm = EcmParams(t=330.0)
    with pytest.raises(ExecutionError, match="rail"):
        run_device(gen_pc_adder(2), [0, 0], [1, 0], 0, pp=pulse, ep=warm)
    for subtract in (False, True):
        prog = gen_tc_adder(2, subtract=subtract)
        for av in range(4):
            for bv in range(4):
                a, b = bits(av, 2), bits(bv, 2)
                want = oracles.sub_oracle(a, b) if subtract \
                    else oracles.add_oracle(a, b, 0)
                got = run_device(prog, a, b, 0, pp=pulse, ep=warm)
                assert list(got.result_bits) == want, (subtract, av, bv)


def test_short_full_window_raises_at_first_write(params, pulse):
    """At a tenth of t_pulse the first write, init_read's write-ONE of
    A0/0/0 over a full window, stops short of ONE: the error names that
    cell, its voltage and the gaps where the full-window pulse ends."""
    short = dataclasses.replace(pulse, t_pulse=pulse.t_pulse / 10)
    xs = crs_pulse(crs_state_for_bit(0, params), short.v_w, short.t_pulse,
                   params, n_samples=SAMPLES_PER_PULSE)[0]
    assert xs != crs_state_for_bit(1, params)
    want = (f"cell A0/0/0 missed its rail: the {short.v_w:+.6g} V pulse "
            f"ended at x_top={xs[0]:.6e} m, x_bottom={xs[1]:.6e} m")
    with pytest.raises(ExecutionError, match=re.escape(want) + "$"):
        run_device(gen_pc_adder(2), [1, 0], [1, 0], 0, pp=short, ep=params)


def _mirror(row):
    t, vm, i_top, i_bot, x_top, x_bot, pk_top, pk_bot = row
    return t, vm, i_bot, i_top, x_bot, x_top, pk_bot, pk_top


CELLS = [("default", 1.0)] + [(name, scale) for name in
                              ("j0", "a_fil", "sigma_ion", "t", "dw0")
                              for scale in (0.95, 1.05)]


@pytest.mark.parametrize("name,scale", CELLS)
def test_one_march_carries_the_rail_pulses(name, scale):
    """On each calibrated cell, the pulse from ONE at -v is the mirror of
    the one from ZERO at +v, and a half window is the first half of the
    full window's rows, bit for bit: the pulse table serves all of them
    from one march."""
    p = EcmParams()
    if name != "default":
        p = dataclasses.replace(p, **{name: getattr(p, name) * scale})
    pp = calibrate_pulse(p)
    zero, one = crs_state_for_bit(0, p), crs_state_for_bit(1, p)
    half = SAMPLES_PER_PULSE // 2
    for v in (pp.v_w, -pp.v_w, 0.5 * pp.v_w, -0.5 * pp.v_w):
        rows = crs_pulse(zero, v, pp.t_pulse, p,
                         n_samples=SAMPLES_PER_PULSE)[2]
        mirrored = [_mirror(r) for r in rows]
        for dur, n in ((pp.t_pulse, SAMPLES_PER_PULSE),
                       (0.5 * pp.t_pulse, half)):
            last = rows[n - 1]
            assert crs_pulse(zero, v, dur, p, n_samples=n) \
                == (last[4:6], last[7], rows[:n]), (v, n)
            assert crs_pulse(one, -v, dur, p, n_samples=n) \
                == (_mirror(last)[4:6], last[6], mirrored[:n]), (v, n)
        # the grid of calibration's half-select marches
        if abs(v) < pp.v_w:
            xs, _, rows = crs_pulse(zero, v, pp.t_pulse, p, n_samples=4)
            assert crs_pulse(one, -v, pp.t_pulse, p, n_samples=4) \
                == (xs[::-1], rows[-1][6], [_mirror(r) for r in rows]), v


def test_samples_per_pulse_must_be_even(params, pulse, monkeypatch):
    monkeypatch.setattr(executor, "SAMPLES_PER_PULSE", 41)
    with pytest.raises(ValueError, match="must be even"):
        run_device(gen_pc_adder(1), [0], [1], 0, pp=pulse, ep=params)


def _device_equals_behavioral(prog, a, b, pulse, params, where=None):
    """Run prog at both levels and assert that per-step decoded states
    and line levels, every read's (step, cell, latch, spike, bit) and the
    result bits agree; returns the device trace."""
    dev = run_device(prog, a, b, 0, pp=pulse, ep=params)
    beh = run_behavioral(prog, a, b, 0)
    assert len(dev.steps) == len(beh.steps) == len(prog.steps)
    for d, h in zip(dev.steps, beh.steps):
        assert d.cell_states == {c: str(v) for c, v
                                 in h.cell_states.items()}, (where, d.index)
        assert (d.wl_levels, d.bl_levels) == (h.wl_levels, h.bl_levels), \
            (where, d.index)
    assert [(r.step_index, r.cell, r.latch, r.spike, r.bit)
            for r in dev.reads] \
        == [(r.step_index, r.cell, r.latch, r.spike, r.bit)
            for r in beh.reads], where
    assert dev.result_bits == beh.result_bits, where
    return dev


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("gen,subtract", KINDS)
def test_device_equals_behavioral_exhaustive(params, pulse, cached_crs_pulse,
                                             monkeypatch, gen, subtract, n):
    """Every n-bit operand pair, all four kinds on memoized pulses: result
    bits against the oracle, and the device run against the behavioral
    one."""
    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    prog = gen(n, subtract=subtract)
    for av in range(2 ** n):
        for bv in range(2 ** n):
            a, b = bits(av, n), bits(bv, n)
            dev = _device_equals_behavioral(prog, a, b, pulse, params,
                                            (av, bv))
            want = oracles.sub_oracle(a, b) if subtract \
                else oracles.add_oracle(a, b, 0)
            assert list(dev.result_bits) == want, (av, bv)


def _wide_operands(kind, n):
    if kind == "ones":
        return [1] * n, [1] * n
    rng = random.Random(n)
    return ([rng.randint(0, 1) for _ in range(n)],
            [rng.randint(0, 1) for _ in range(n)])


@pytest.mark.parametrize("n", (8, 16, 32, 64))
@pytest.mark.parametrize("kind", ("ones", "random"))
@pytest.mark.parametrize("gen,subtract", KINDS)
def test_device_equals_behavioral_wide(params, pulse, cached_crs_pulse,
                                       monkeypatch, gen, subtract, kind, n):
    """Wide words, all-ones and seeded random operands: a cell on an
    undriven line floats, so no cell accumulates half-select drift and
    the device run follows the behavioral one step by step."""
    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    a, b = _wide_operands(kind, n)
    _device_equals_behavioral(gen(n, subtract=subtract), a, b, pulse, params)


@pytest.mark.parametrize("gen,a,b", [
    (gen_tc_adder, [1] * 106, [1] * 106),
    (gen_tc_adder, [1] + [0] * 119, [0] * 120),
    (gen_pc_adder, [1] + [0] * 119, [0] * 120)],
    ids=["tc-106-ones", "tc-120-one", "pc-120-one"])
def test_device_equals_behavioral_half_select_cases(
        params, pulse, cached_crs_pulse, monkeypatch, gen, a, b):
    """Additions whose peeled sum cells must hold through more than a
    hundred later steps: any per-step drift of a cell on an undriven
    line would flip their result bits."""
    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    _device_equals_behavioral(gen(len(a)), a, b, pulse, params)


class _RecordingCells(_BitCells):
    """Behavioral backend that keeps every (cell, wl, bl) it is handed."""

    def __init__(self, p):
        super().__init__(p)
        self.pairs = []

    def step(self, si, annotation, wls, pairs, reads, half):
        self.pairs += pairs
        return super().step(si, annotation, wls, pairs, reads, half)


@pytest.mark.parametrize("gen,subtract", KINDS)
def test_interpreter_never_pulses_a_cell_on_a_ground_line(gen, subtract):
    prog = gen(4, subtract=subtract)
    for av, bv in ((0, 0), (15, 15), (5, 10), (9, 3)):
        cells = _RecordingCells(prog)
        executor._interpret(prog, bits(av, 4), bits(bv, 4), 0, cells)
        assert cells.pairs
        assert all(w in (0, 1) and b in (0, 1) and w != b
                   for _, w, b in cells.pairs)


def test_ground_wordline_holds_every_cell(params, pulse):
    """A hand-built program: write ONE into cell 0, then drive both
    bitlines both ways under a ground wordline.  Nothing is pulsed, the
    states hold at both levels and the device bitlines carry no current."""
    cells = (CellAddr(0, 0, 0), CellAddr(0, 0, 1))

    def step(wl, bls):
        return Step("carry", (ArrayDrive(0, 0, wl, bls),))

    prog = Program("hand", 1, False, (
        step(CONST1, (CONST0, CONST1)),
        step(GROUND, (CONST0, CONST1)),
        step(GROUND, (CONST1, CONST0))), cells, cells)
    rec = _RecordingCells(prog)
    beh = executor._interpret(prog, [0], [0], 0, rec)[0]
    assert rec.pairs == [("A0/0/0", 1, 0)]
    dev = run_device(prog, [0], [0], 0, pp=pulse, ep=params)
    for tr in (beh, dev.steps):
        assert [{k: str(v) for k, v in r.cell_states.items()} for r in tr] \
            == [{"A0/0/0": "1", "A0/0/1": "0"}] * 3
    i_bl = [k for k, col in enumerate(dev.sample_columns)
            if col.startswith("i_bl_")]
    assert [row[k] for row in dev.samples if row[1] > 0 for k in i_bl] \
        == [0.0] * (2 * 2 * executor.SAMPLES_PER_PULSE)
    assert any(row[i_bl[0]] != 0.0 for row in dev.samples if row[1] == 0)


def _one_row_step(wl_index, annotation, wl, bls, reads=()):
    return Step(annotation, (ArrayDrive(0, wl_index, wl, bls),), reads)


def _two_row_program():
    """Array 0 with wordlines 0 and 1 over bitlines 0 and 1, so two cells
    share each bitline column: writes and holds on both rows, a latched
    read on row 0 consumed on row 1, and a read of row 0 forwarded along
    it."""
    c = {(wl, bl): CellAddr(0, wl, bl) for wl in (0, 1) for bl in (0, 1)}
    steps = (
        _one_row_step(0, "carry", CONST1, (CONST0, CONST1)),
        _one_row_step(1, "carry", CONST1, (CONST0, CONST0)),
        _one_row_step(1, "carry", input_a(0), (CONST1, input_b(0))),
        _one_row_step(0, "read", CONST1, (CONST0, GROUND),
                      (ReadDirective(c[0, 0], "c1"),)),
        _one_row_step(1, "sum2", reg("c1"), (CONST0, CONST1)),
        _one_row_step(0, "carry", CONST0, (input_a(0), GROUND)),
        _one_row_step(0, "sum2", CONST1, (CONST0, read_forward(c[0, 0])),
                      (ReadDirective(c[0, 0]),)),
    )
    return Program("hand", 1, False, steps, (c[1, 0], c[1, 1]),
                   tuple(c.values()))


# SHA-256 of the repr of device traces on memoized pulses: one n=16 run
# per kind on _wide_operands("random", 16), and the four operand pairs
# of _two_row_program, whose bitline columns each hold two cells
GOLDEN_WIDE = {
    "pc-add":
        "f6228d6e705b79b5bc19994f9b703f0d4b569d667d19502ee66c54e8b9a8b408",
    "pc-sub":
        "57df59bca70121ed272bfa3609a321cf743972fcad0e8a548b98a9d4366251ba",
    "tc-add":
        "6e493dc91dbec701613fa2bc947b8978057cf6279b8a15dcfff6cb02f42d9a10",
    "tc-sub":
        "162e1f60d9141e9140e9df548581c3137b9785178facb6d71086d9c34bd20986",
    "two-row":
        "5c53fc829cbe6d72bb1dd744b407296270ad86984d4af48016eaf482190c0d1a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WIDE))
def test_device_wide_trace_golden(params, pulse, cached_crs_pulse,
                                  monkeypatch, name):
    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    if name == "two-row":
        prog = _two_row_program()
        traces = [_device_equals_behavioral(prog, [a], [b], pulse, params,
                                            (a, b))
                  for a in (0, 1) for b in (0, 1)]
    else:
        scheme, op = name.split("-")
        prog = microcode.GENERATORS[scheme](16, subtract=op == "sub")
        traces = [run_device(prog, *_wide_operands("random", 16), 0,
                             pp=pulse, ep=params)]
    h = hashlib.sha256()
    for tr in traces:
        h.update(repr(tr).encode())
    assert h.hexdigest() == GOLDEN_WIDE[name]


@pytest.mark.parametrize("gen", (gen_pc_adder, gen_tc_adder))
def test_device_decodes_only_moved_cells(params, pulse, cached_crs_pulse,
                                         monkeypatch, gen):
    """A device cell's state is the rail its last pulse wrote, so a run
    classifies no gaps at all."""
    prog = gen(16)
    a, b = _wide_operands("random", 16)
    calls = []

    def counted(x_top, x_bot, gap_threshold):
        calls.append((x_top, x_bot))
        return classify(x_top, x_bot, gap_threshold)

    monkeypatch.setattr(executor, "crs_pulse", cached_crs_pulse)
    monkeypatch.setattr(executor, "classify", counted)
    tr = run_device(prog, a, b, 0, pp=pulse, ep=params)
    assert tr.result_bits == run_behavioral(prog, a, b, 0).result_bits
    assert calls == []


@pytest.mark.parametrize("wl,bl", [(GROUND, CONST0), (CONST0, CONST1),
                                   (CONST1, CONST1)],
                         ids=["ground-wordline", "write-zero", "hold"])
def test_read_must_be_driven_as_write_one(params, pulse, wl, bl):
    """A read judges the spike of its cell's write-ONE pulse.  Under any
    other drive the behavioral level would give the stored bit and the
    device level a cell that no pulse reached, so validation rejects
    the program and both levels raise."""
    cells = (CellAddr(0, 0, 0), CellAddr(0, 0, 1))
    prog = Program("hand", 1, False, (
        _one_row_step(0, "carry", CONST1, (CONST0, CONST0)),
        _one_row_step(0, "carry", CONST0, (CONST1, CONST1)),
        _one_row_step(0, "read", wl, (bl, CONST0),
                      (ReadDirective(cells[0]),))), cells, cells)
    assert [d for d in validate_program(prog) if "read of A0/0/0" in d]
    with pytest.raises(ExecutionError, match="write-ONE"):
        run_behavioral(prog, [0], [0], 0)
    with pytest.raises(ExecutionError, match="write-ONE"):
        run_device(prog, [0], [0], 0, pp=pulse, ep=params)


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
