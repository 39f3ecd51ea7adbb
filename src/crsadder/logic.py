"""Two's-complement word helpers and the integer references.

Words are little-endian lists of 0/1 ints (index 0 = LSB); no device
physics.  The references are what the in-memory schedules are checked
against.
"""

from __future__ import annotations


def int_to_word(value, n):
    """Two's-complement little-endian bit list of width n."""
    if n < 1:
        raise ValueError("width must be >= 1")
    lo, hi = -(1 << (n - 1)), (1 << (n - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"{value} does not fit in {n} bits two's-complement")
    return [(value >> k) & 1 for k in range(n)]


def word_to_int(bits):
    """Integer value of a two's-complement little-endian bit list."""
    n = len(bits)
    if n < 1:
        raise ValueError("empty word")
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {b!r}")
    raw = sum(b << k for k, b in enumerate(bits))
    return raw - (bits[-1] << n)


def word_to_str(bits):
    """MSB-first string rendering, e.g. [0,1,0] -> '010'."""
    return "".join(str(b) for b in reversed(bits))


def str_to_word(s):
    """Parse an MSB-first 0/1 string into a little-endian bit list."""
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"expected a nonempty 0/1 string, got {s!r}")
    return [int(ch) for ch in reversed(s)]


def add_words_reference(a_bits, b_bits, c0=0):
    """Sign-extended (n+1)-bit sum by plain integer arithmetic.

    The reference the in-memory schedules are checked against: inputs
    are n-bit two's-complement words, the result is the exact integer
    sum rendered in n+1 bits (always representable).
    """
    if len(a_bits) != len(b_bits):
        raise ValueError("operand widths differ")
    if c0 not in (0, 1):
        raise ValueError("carry-in must be 0 or 1")
    n = len(a_bits)
    total = word_to_int(a_bits) + word_to_int(b_bits) + c0
    return int_to_word(total, n + 1)


def sub_words_reference(a_bits, b_bits):
    """Sign-extended (n+1)-bit difference a - b by integer arithmetic."""
    if len(a_bits) != len(b_bits):
        raise ValueError("operand widths differ")
    n = len(a_bits)
    total = word_to_int(a_bits) - word_to_int(b_bits)
    return int_to_word(total, n + 1)

