"""Carry/sum algebra and word helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from crsadder.logic import (
    add_words_reference,
    carry_next,
    full_adder_bit,
    int_to_word,
    str_to_word,
    sub_words_reference,
    sum_final,
    sum_intermediate,
    word_to_int,
    word_to_str,
)

BITS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def test_carry_equals_majority_exhaustive():
    for a, b, c in BITS:
        assert carry_next(a, b, c) == oracles.majority_bit(a, b, c)


def test_carry_table_rows():
    assert carry_next(1, 1, 0) == 1
    assert carry_next(0, 0, 1) == 0
    assert carry_next(1, 0, 1) == 1


def test_sum_pipeline_equals_xor_exhaustive():
    for a, b, c in BITS:
        s_mid = sum_intermediate(a, b, c)
        s = sum_final(s_mid, b, carry_next(a, b, c))
        assert s == oracles.xor_bit(a, b, c)


def test_sum_intermediate_rows():
    assert sum_intermediate(1, 0, 0) == 1
    assert sum_intermediate(1, 1, 0) == 0
    assert sum_intermediate(0, 0, 0) == 0


def test_pipeline_named_cases():
    # (1,1,0): intermediate 0, carry 1, final 0
    assert sum_intermediate(1, 1, 0) == 0
    assert carry_next(1, 1, 0) == 1
    assert sum_final(0, 1, 1) == 0
    # (1,0,0): intermediate 1, carry 0, final 1
    assert sum_final(1, 0, 0) == 1


def test_full_adder_bit():
    for a, b, c in BITS:
        s, cout = full_adder_bit(a, b, c)
        assert s == (a ^ b ^ c)
        assert cout == oracles.majority_bit(a, b, c)


def test_carry_and_intermediate_share_wordline():
    # both state updates are driven by the same wordline operand, which
    # is what lets one cycle compute them on two cells; the bitline
    # operands differ (b on one line, its complement on the other)
    from crsadder import crs

    calls = []
    original = crs.fsm_next

    def spy(z, wl, bl):
        calls.append((z, wl, bl))
        return original(z, wl, bl)

    from crsadder import logic
    logic.fsm_next, saved = spy, logic.fsm_next
    try:
        for a, b, c in BITS:
            calls.clear()
            carry_next(a, b, c)
            sum_intermediate(a, b, c)
            (_, wl1, bl1), (_, wl2, bl2) = calls
            assert wl1 == wl2 == a
            assert bl1 == 1 - b and bl2 == b
    finally:
        logic.fsm_next = saved


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
        s, c = full_adder_bit(a_bits[min(k, n - 1)], b_bits[min(k, n - 1)], c)
        out.append(s)
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
