"""Microcode IR, program generators, serialization, cost table."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crsadder.microcode import (
    CARRY_IN,
    CONST0,
    CONST1,
    GROUND,
    SCHEME_CYCLES,
    SCHEME_DEVICES,
    CellAddr,
    Signal,
    comparison_csv,
    comparison_markdown,
    comparison_table,
    gen_pc_adder,
    gen_tc_adder,
    input_a,
    input_b,
    not_b,
    program_from_json,
    program_to_json,
    read_forward,
    reg,
    render_step_table,
    validate_program,
)


# ----------------------------------------------------------------------
# addresses and signals
# ----------------------------------------------------------------------

def test_cell_addr_string_roundtrip():
    c = CellAddr(1, 0, 2)
    assert str(c) == "A1/0/2"
    assert CellAddr.parse("A1/0/2") == c


def test_cell_addr_ordering():
    assert CellAddr(0, 0, 1) < CellAddr(0, 0, 2) < CellAddr(1, 0, 0)


@pytest.mark.parametrize("sig,text", [
    (CONST0, "const0"),
    (CONST1, "const1"),
    (GROUND, "ground"),
    (CARRY_IN, "carry_in"),
    (input_a(1), "a:1"),
    (input_b(0), "b:0"),
    (not_b(0), "not_b:0"),
    (read_forward(CellAddr(1, 0, 2)), "read_fwd:A1/0/2"),
    (reg("c1"), "reg:c1"),
])
def test_signal_serialization(sig, text):
    assert str(sig) == text
    assert Signal.parse(text) == sig


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal("a")           # operand signals need an index
    with pytest.raises(ValueError):
        Signal("wat")
    with pytest.raises(ValueError):
        Signal.parse("reg:")


# ----------------------------------------------------------------------
# cost formulas
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 65))
def test_cycle_and_device_formulas(n):
    pc = gen_pc_adder(n)
    tc = gen_tc_adder(n)
    assert len(pc.steps) == SCHEME_CYCLES["pc"](n) == 2 * (n + 1) + 2
    assert len(tc.steps) == SCHEME_CYCLES["tc"](n) == 4 * n + 5
    assert len(pc.used_cells) == SCHEME_DEVICES["pc"](n) == 2 * (n + 1)
    assert len(tc.used_cells) == SCHEME_DEVICES["tc"](n) == n + 2
    assert pc.cycle_count == len(pc.steps)
    assert tc.device_count == len(tc.used_cells)


def test_generators_reject_zero_width():
    with pytest.raises(ValueError):
        gen_pc_adder(0)
    with pytest.raises(ValueError):
        gen_tc_adder(-1)


# ----------------------------------------------------------------------
# generated structure, two-bit worked example
# ----------------------------------------------------------------------

def test_pc_two_bit_signal_matrix():
    p = gen_pc_adder(2)
    calc = {d.array: d for d in p.steps[0].drives}

    s1 = p.steps[0]
    assert s1.annotation == "init_read"
    for d in s1.drives:
        assert d.wl == CONST1 and all(b == CONST0 for b in d.bls)

    s2 = p.steps[1]
    assert s2.annotation == "program_c0"
    for d in s2.drives:
        assert d.wl == CARRY_IN and all(b == CONST1 for b in d.bls)

    # first combined carry/intermediate-sum step: wordline carries the
    # first operand bit, the computing calc cell gets b0, every higher
    # calc cell and all pending aux cells get its complement
    s3 = p.steps[2]
    assert s3.annotation == "carry"
    drives = {d.array: d for d in s3.drives}
    assert drives[0].wl == input_a(0) and drives[1].wl == input_a(0)
    assert list(drives[0].bls) == [input_b(0), not_b(0), not_b(0)]
    assert list(drives[1].bls) == [not_b(0), not_b(0), not_b(0)]

    # sign extension: the final carry step reuses the MSB operands
    s5 = p.steps[4]
    drives = {d.array: d for d in s5.drives}
    assert drives[0].wl == input_a(1)
    assert list(drives[0].bls) == [GROUND, GROUND, input_b(1)]
    assert list(drives[1].bls) == [GROUND, GROUND, not_b(1)]

    # read-and-forward finishing steps
    s6 = p.steps[5]
    assert s6.annotation == "sum2"
    drives = {d.array: d for d in s6.drives}
    assert drives[0].wl == input_b(0)
    assert drives[0].bls[0] == read_forward(CellAddr(1, 0, 0))
    assert drives[0].bls[1] == GROUND and drives[0].bls[2] == GROUND
    assert drives[1].wl == CONST1
    assert list(drives[1].bls) == [CONST0, GROUND, GROUND]
    assert [str(r.cell) for r in s6.reads] == ["A1/0/0"]

    assert [str(c) for c in p.result_cells] == ["A0/0/0", "A0/0/1",
                                                "A0/0/2"]
    assert calc is not None


def test_pc_all_carry_steps_share_wordline_per_array():
    p = gen_pc_adder(5)
    for step in p.steps:
        if step.annotation != "carry":
            continue
        wls = {d.wl for d in step.drives}
        assert len(wls) == 1
        assert next(iter(wls)).kind == "a"


def test_tc_two_bit_structure():
    p = gen_tc_adder(2)
    assert len(p.steps) == 13
    annotations = [s.annotation for s in p.steps]
    assert annotations == ["init_read", "program_c0",
                           "carry", "read", "sum2", "writeback",
                           "carry", "read", "sum2", "writeback",
                           "carry", "read", "sum2"]

    # each read step pulls only the toggle cell: full read drive on
    # bitline 0, every sum cell grounded
    read_steps = [i for i, s in enumerate(p.steps) if s.annotation == "read"]
    assert read_steps == [3, 7, 11]
    for i, latch in zip(read_steps, ("c1", "c2", "c3")):
        step = p.steps[i]
        (d,) = step.drives
        assert d.wl == CONST1
        assert d.bls[0] == CONST0
        assert all(b == GROUND for b in d.bls[1:])
        assert [(str(r.cell), r.latch) for r in step.reads] \
            == [("A0/0/0", latch)]

    # write-back returns the latched carry to the toggle cell, using the
    # known post-read state: on the freshly read cell a '1' level holds
    # and a '0' level writes back a zero
    wb = p.steps[5]
    (d,) = wb.drives
    assert d.wl == reg("c1")
    assert d.bls[0] == CONST1
    assert all(b == GROUND for b in d.bls[1:])

    # second-cycle sum uses the register on the target sum cell
    s2 = p.steps[4]
    (d,) = s2.drives
    assert d.wl == input_b(0)
    assert d.bls[1] == reg("c1")
    assert all(b == GROUND for k, b in enumerate(d.bls) if k != 1)

    assert [str(c) for c in p.result_cells] == ["A0/0/1", "A0/0/2",
                                                "A0/0/3"]


def test_tc_carry_steps_feed_toggle_cell_every_cycle():
    p = gen_tc_adder(3)
    for step in p.steps:
        if step.annotation != "carry":
            continue
        (d,) = step.drives
        assert d.bls[0].kind == "not_b"


def test_subtract_swaps_operand_complements():
    plain = gen_pc_adder(2)
    sub = gen_pc_adder(2, subtract=True)
    assert sub.subtract and not plain.subtract
    d_plain = {d.array: d for d in plain.steps[2].drives}
    d_sub = {d.array: d for d in sub.steps[2].drives}
    assert d_plain[0].bls[0] == input_b(0)
    assert d_sub[0].bls[0] == not_b(0)
    assert d_plain[1].bls[0] == not_b(0)
    assert d_sub[1].bls[0] == input_b(0)

    tsub = gen_tc_adder(2, subtract=True)
    (d,) = tsub.steps[4].drives
    assert d.wl == not_b(0)


def test_idle_bitlines_grounded():
    for p in (gen_pc_adder(3), gen_tc_adder(3)):
        for step in p.steps:
            if step.annotation not in ("sum2", "read", "writeback"):
                continue
            for d in step.drives:
                active = [b for b in d.bls if b != GROUND]
                # at most the computing line and (tc read) none besides
                assert len(active) <= 1


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

@given(n=st.integers(1, 40), scheme=st.sampled_from(["pc", "tc"]),
       subtract=st.booleans())
def test_generated_programs_validate_clean(n, scheme, subtract):
    gen = gen_pc_adder if scheme == "pc" else gen_tc_adder
    assert validate_program(gen(n, subtract=subtract)) == []


def test_validation_flags_wrong_length():
    p = gen_pc_adder(2)
    broken = dataclasses.replace(p, steps=p.steps[:-1])
    diags = validate_program(broken)
    assert any("step" in d and "7" in d for d in diags)


def test_validation_flags_register_before_latch():
    p = gen_tc_adder(1)
    # swap the first read/sum2 pair so the register is consumed first
    steps = list(p.steps)
    steps[3], steps[4] = steps[4], steps[3]
    broken = dataclasses.replace(p, steps=tuple(steps))
    diags = validate_program(broken)
    assert any("latch" in d or "register" in d for d in diags)


def test_validation_flags_unread_forward():
    p = gen_pc_adder(1)
    idx = next(i for i, s in enumerate(p.steps) if s.annotation == "sum2")
    step = p.steps[idx]
    broken_step = dataclasses.replace(step, reads=())
    steps = list(p.steps)
    steps[idx] = broken_step
    diags = validate_program(dataclasses.replace(p, steps=tuple(steps)))
    assert any("forward" in d or "read" in d for d in diags)


def test_validation_flags_wordline_forward():
    p = gen_pc_adder(1)
    idx = next(i for i, s in enumerate(p.steps) if s.annotation == "sum2")
    step = p.steps[idx]
    drives = (dataclasses.replace(step.drives[0],
                                  wl=read_forward(step.reads[0].cell)),
              *step.drives[1:])
    steps = list(p.steps)
    steps[idx] = dataclasses.replace(step, drives=drives)
    diags = validate_program(dataclasses.replace(p, steps=tuple(steps)))
    assert any("wordline carries a forward" in d for d in diags)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

@pytest.mark.parametrize("gen,n", [(gen_pc_adder, 1), (gen_pc_adder, 3),
                                   (gen_tc_adder, 1), (gen_tc_adder, 3)])
def test_json_roundtrip(gen, n):
    p = gen(n)
    text = program_to_json(p)
    q = program_from_json(text)
    assert q == p
    assert program_to_json(q) == text


def test_json_shape():
    doc = json.loads(program_to_json(gen_pc_adder(2)))
    assert doc["scheme"] == "pc" and doc["n"] == 2
    assert doc["subtract"] is False
    assert len(doc["steps"]) == 8
    step = doc["steps"][5]
    assert step["annotation"] == "sum2"
    arrays = {a["array"]: a for a in step["arrays"]}
    assert arrays[0]["bls"][0] == "read_fwd:A1/0/0"
    assert step["reads"] == ["A1/0/0"]
    tc_doc = json.loads(program_to_json(gen_tc_adder(2)))
    assert tc_doc["steps"][4]["arrays"][0]["bls"][1] == "reg:c1"
    assert tc_doc["steps"][3]["latches"] == ["c1"]


def test_step_table_layout():
    table = render_step_table(gen_tc_adder(2))
    lines = table.rstrip("\n").split("\n")
    assert lines[0].startswith("scheme=tc n=2")
    assert len(lines) == 2 + 13     # header line + column row + steps
    assert lines[2].startswith("1")
    assert "init_read" in lines[2]


# ----------------------------------------------------------------------
# comparison table
# ----------------------------------------------------------------------

def test_comparison_rows_n2():
    rows = {r.scheme: r for r in comparison_table(2)}
    assert rows["Lehtonen"].devices == 11
    assert rows["Lehtonen"].cycles == 224
    assert rows["Kvatinsky serial"].devices == 9
    assert rows["Kvatinsky serial"].cycles == 58
    assert rows["Kvatinsky parallel"].devices == 18
    assert rows["Kvatinsky parallel"].cycles == 28
    assert rows["PC adder"].devices == 6
    assert rows["PC adder"].cycles == 8
    assert rows["TC adder"].devices == 4
    assert rows["TC adder"].cycles == 13


def test_comparison_crossbar_flags():
    rows = {r.scheme: r for r in comparison_table(5)}
    assert not rows["Kvatinsky parallel"].common_crossbar
    for name in ("Lehtonen", "Kvatinsky serial", "PC adder", "TC adder"):
        assert rows[name].common_crossbar


@given(n=st.integers(1, 128))
def test_toggle_scheme_minimizes_devices(n):
    rows = comparison_table(n)
    tc = next(r for r in rows if r.scheme == "TC adder")
    assert tc.devices == min(r.devices for r in rows)


def test_comparison_small_n_values():
    rows1 = {r.scheme: r for r in comparison_table(1)}
    assert rows1["PC adder"].devices == 4
    assert rows1["PC adder"].cycles == 6
    assert rows1["TC adder"].devices == 3
    assert rows1["TC adder"].cycles == 9


def test_comparison_markdown_marks_best():
    md = comparison_markdown([2])
    assert "| PC adder | 6 | **8*** | yes |" in md
    assert "| TC adder | **4*** | 13 | yes |" in md


def test_comparison_csv_shape():
    text = comparison_csv([1, 2])
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "n,scheme,devices,cycles,common_crossbar," \
                       "best_devices,best_cycles"
    assert len(lines) == 1 + 10
    assert "2,TC adder,4,13,yes,yes,no" in lines
