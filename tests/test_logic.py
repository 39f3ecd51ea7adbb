"""Carry/sum algebra of the state-update rule, the carry steps of the
generated programs, and the word helpers."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from crsadder.crs import fsm_next
from crsadder.logic import (
    add_words_reference,
    int_to_word,
    str_to_word,
    sub_words_reference,
    word_to_int,
    word_to_str,
)
from crsadder.microcode import gen_pc_adder, gen_tc_adder

BITS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]

# A cell holding the carry c becomes the carry-out under (wl, bl) =
# (a, NOT b), and the sum under (a, b) followed by (b, carry-out).


def test_carry_equals_majority_exhaustive():
    for a, b, c in BITS:
        assert fsm_next(c, a, 1 - b) == oracles.majority_bit(a, b, c)


def test_carry_table_rows():
    assert fsm_next(0, 1, 0) == 1    # a=1, b=1, c=0
    assert fsm_next(1, 0, 1) == 0    # a=0, b=0, c=1
    assert fsm_next(1, 1, 1) == 1    # a=1, b=0, c=1


def test_sum_pipeline_equals_xor_exhaustive():
    for a, b, c in BITS:
        s_mid = fsm_next(c, a, b)
        s = fsm_next(s_mid, b, fsm_next(c, a, 1 - b))
        assert s == oracles.xor_bit(a, b, c)


def test_sum_intermediate_rows():
    assert fsm_next(0, 1, 0) == 1    # a=1, b=0, c=0
    assert fsm_next(0, 1, 1) == 0    # a=1, b=1, c=0
    assert fsm_next(0, 0, 0) == 0    # a=0, b=0, c=0


def test_pipeline_named_cases():
    # (a, b, c) = (1, 1, 0): intermediate 0, carry 1, final 0
    s_mid, c_out = fsm_next(0, 1, 1), fsm_next(0, 1, 0)
    assert (s_mid, c_out) == (0, 1)
    assert fsm_next(s_mid, 1, c_out) == 0
    # (1, 0, 0): intermediate 1, carry 0, final 1
    assert fsm_next(1, 0, 0) == 1


def test_full_adder_bit():
    for a, b, c in BITS:
        c_out = fsm_next(c, a, 1 - b)
        assert fsm_next(fsm_next(c, a, b), b, c_out) == (a ^ b ^ c)
        assert c_out == oracles.majority_bit(a, b, c)


def test_carry_and_intermediate_share_wordline():
    """Every generated carry step puts a:i on each wordline it drives;
    the sum cell it peels sees b:i (not_b:i when subtracting), every
    cell still carrying sees the complement and every peeled sum cell
    is grounded.  So one cycle runs the carry update on the carrying
    cells and the first sum update on the peeled one."""
    for gen, n, subtract in itertools.product((gen_pc_adder, gen_tc_adder),
                                              range(1, 9), (False, True)):
        p = gen(n, subtract=subtract)
        b, nb = ("not_b", "b") if subtract else ("b", "not_b")
        carries = [s for s in p.steps if s.annotation == "carry"]
        assert len(carries) == n + 1
        for i, step in enumerate(carries):
            idx = min(i, n - 1)
            seen = {}
            for d in step.drives:
                assert str(d.wl) == f"a:{idx}", (gen, n, subtract, i)
                for c in p.used_cells:
                    if (c.array, c.wl) == (d.array, d.wl_index):
                        seen[c] = str(d.bls[c.bl])
            want = ["ground"] * i + [f"{b}:{idx}"] + [f"{nb}:{idx}"] * (n - i)
            assert [seen[c] for c in p.result_cells] == want, \
                (gen, n, subtract, i)
            others = [seen[c] for c in p.used_cells if c not in p.result_cells]
            assert f"{nb}:{idx}" in others
            assert set(others) <= {"ground", f"{nb}:{idx}"}


# ----------------------------------------------------------------------
# word helpers
# ----------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=16), st.data())
def test_word_roundtrip(n, data):
    value = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    bits = int_to_word(value, n)
    assert len(bits) == n
    assert word_to_int(bits) == value
    assert str_to_word(word_to_str(bits)) == bits


def test_word_range_check():
    with pytest.raises(ValueError):
        int_to_word(2, 2)
    with pytest.raises(ValueError):
        int_to_word(-3, 2)


def test_str_parsing():
    assert str_to_word("011") == [1, 1, 0]
    assert word_to_str([1, 1, 0]) == "011"
    with pytest.raises(ValueError):
        str_to_word("01x")
    with pytest.raises(ValueError):
        str_to_word("")


@given(st.integers(min_value=1, max_value=10), st.data())
def test_reference_adder_matches_oracle(n, data):
    av = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    bv = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    c0 = data.draw(st.integers(0, 1))
    a, b = int_to_word(av, n), int_to_word(bv, n)
    assert add_words_reference(a, b, c0) == oracles.add_oracle(a, b, c0)
    assert sub_words_reference(a, b) == oracles.sub_oracle(a, b)


def ripple_add_words(a_bits, b_bits, c0=0):
    """(n+1)-bit sum using only the state-update pipeline per bit; the
    extra significance reuses the operand MSBs (sign extension)."""
    n = len(a_bits)
    c = c0
    out = []
    for k in range(n + 1):
        a, b = a_bits[min(k, n - 1)], b_bits[min(k, n - 1)]
        c_out = fsm_next(c, a, 1 - b)
        out.append(fsm_next(fsm_next(c, a, b), b, c_out))
        c = c_out
    return out


@given(st.integers(min_value=1, max_value=10), st.data())
def test_ripple_adder_matches_reference(n, data):
    av = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    bv = data.draw(st.integers(-(1 << (n - 1)), (1 << (n - 1)) - 1))
    c0 = data.draw(st.integers(0, 1))
    a, b = int_to_word(av, n), int_to_word(bv, n)
    assert ripple_add_words(a, b, c0) == add_words_reference(a, b, c0)


def test_result_width_is_n_plus_one():
    assert len(add_words_reference([1, 1], [1, 1], 0)) == 3
    # -1 + -1 keeps its sign in the widened word
    assert add_words_reference([1, 1], [1, 1], 0) == [0, 1, 1]
