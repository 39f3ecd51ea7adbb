"""Independent oracles used to freeze expected values.

Everything here is written from the physics/arithmetic directly, on
purpose NOT reusing the package's solver or helpers: the DC operating
point comes from nested interval bisection (outer loop on the parallel
block voltage, inner loop on the ionic branch current), the pair's
middle node from one more bisection around it, transients from
explicit Euler with a motion cap, and word arithmetic from Python ints.
Agreement between these and the package is what the golden constants in
the tests certify.
"""

from __future__ import annotations

import math

# CODATA 2018 exact values, restated here rather than imported.
Q_E = 1.602176634e-19
PLANCK_H = 6.62607015e-34
K_BOLTZ = 1.380649e-23

# Reference cell parameters (SI units; masses in grams).
REF = {
    "r_el": 0.070,
    "l": 20e-9,
    "rho_m": 8.95e6,
    "a_fil": 135.87e-18,
    "m_me": 1.06e-22,
    "sigma_fil": 5e7,
    "sigma_ion": 1e2,
    "dw0": 3.6 * Q_E,
    "m_eff": 0.86 * 9.1e-31,
    "t": 300.0,
    "alpha": 0.5,
    "z": 1.0,
    "j0": 0.01,
    "x_min": 0.1e-9,
}


def _beta_a(prm):
    return (1.0 - prm["alpha"]) * prm["z"] * Q_E / (K_BOLTZ * prm["t"])


def _beta_c(prm):
    return prm["alpha"] * prm["z"] * Q_E / (K_BOLTZ * prm["t"])


def ionic_current_oracle(eta1, polarity, prm=REF):
    """Tafel interface current, evaluated straight from the formula."""
    j0a = prm["j0"] * prm["a_fil"]
    if polarity > 0:
        return j0a * (math.exp(_beta_a(prm) * eta1) - 1.0)
    if polarity < 0:
        return j0a * (1.0 - math.exp(-_beta_c(prm) * eta1))
    return 0.0


def tunnel_current_oracle(x, v_tu, prm=REF):
    """Trapezoidal-barrier tunneling, low-voltage linear form."""
    kappa = 4.0 * math.pi / PLANCK_H * math.sqrt(
        2.0 * prm["m_eff"] * prm["dw0"])
    pref = (1.5 * math.sqrt(2.0 * prm["m_eff"] * prm["dw0"])
            * (Q_E / PLANCK_H) ** 2 * prm["a_fil"])
    return pref / x * math.exp(-kappa * x) * v_tu


def gap_rate_oracle(i_ion, prm=REF):
    """Faraday mass transport: dx/dt for a given ionic current."""
    return -prm["m_me"] / (prm["z"] * Q_E * prm["a_fil"] * prm["rho_m"]) \
        * i_ion


def _ionic_branch_voltage(i, x, prm):
    """Voltage across the whole ionic branch at branch current i.

    Interface 1 drop inverted from the Tafel law, interface 2 mirrored
    (same current, opposite polarity convention), ohmic drop across the
    gap-length ionic resistance in between.
    """
    j0a = prm["j0"] * prm["a_fil"]
    r_ion = x / (prm["sigma_ion"] * prm["a_fil"])
    if i > 0:
        eta1 = math.log1p(i / j0a) / _beta_a(prm)
        eta2 = math.log1p(i / j0a) / _beta_c(prm)
    elif i < 0:
        eta1 = -math.log1p(-i / j0a) / _beta_c(prm)
        eta2 = -math.log1p(-i / j0a) / _beta_a(prm)
    else:
        eta1 = eta2 = 0.0
    return eta1 + r_ion * i + eta2


def _ionic_current_for_drop(v_p, x, prm):
    """Inner bisection: branch current whose total drop equals v_p."""
    if v_p == 0.0:
        return 0.0
    lo, hi = (0.0, 1.0) if v_p > 0 else (-1.0, 0.0)
    grow = hi if v_p > 0 else lo
    for _ in range(200):
        if (_ionic_branch_voltage(grow, x, prm) - v_p) * \
                (1 if v_p > 0 else -1) >= 0:
            break
        grow *= 4.0
    else:
        raise RuntimeError("ionic bracket growth failed")
    if v_p > 0:
        hi = grow
    else:
        lo = grow
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break   # adjacent floats: further halving changes nothing
        if _ionic_branch_voltage(mid, x, prm) < v_p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_dc_oracle(v_cell, x, prm=REF):
    """Nested-bisection operating point of the two-branch cell circuit.

    Outer variable: v_p, the voltage across the ionic/tunneling parallel
    block. Residual v_cell - v_p - (R_el + R_fil)*(I_ion + I_Tu) is
    strictly decreasing in v_p, so plain bisection on [0, v_cell]
    (ordered) converges unconditionally.

    Returns dict with i_ion, i_tu, i_total, v_p.
    """
    if v_cell == 0.0:
        return {"i_ion": 0.0, "i_tu": 0.0, "i_total": 0.0, "v_p": 0.0}
    r_fil = (prm["l"] - x) / (prm["sigma_fil"] * prm["a_fil"])
    r_ser = r_fil + prm["r_el"]
    g_tu = tunnel_current_oracle(x, 1.0, prm)

    def residual(v_p):
        i = _ionic_current_for_drop(v_p, x, prm) + g_tu * v_p
        return v_cell - v_p - r_ser * i

    lo, hi = (0.0, v_cell) if v_cell > 0 else (v_cell, 0.0)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    v_p = 0.5 * (lo + hi)
    i_ion = _ionic_current_for_drop(v_p, x, prm)
    i_tu = g_tu * v_p
    return {"i_ion": i_ion, "i_tu": i_tu, "i_total": i_ion + i_tu,
            "v_p": v_p}


def solve_pair_oracle(v_w, v_b, x_top, x_bot, prm=REF):
    """Middle node of the anti-serial pair by bisection on v_m.

    The top cell sees v_m - v_w, the bottom v_m - v_b, each solved by
    solve_dc_oracle; the node current i_top + i_bot strictly increases
    with v_m and changes sign between the lines.  v_m is bisected as an
    offset from the line it lies nearer (decided at the midpoint), so
    that cell's small voltage keeps its digits.  Returns dict with v_m
    and j, the bottom cell current.
    """
    def node_current(base, d):
        return (solve_dc_oracle(base - v_w + d, x_top, prm)["i_total"]
                + solve_dc_oracle(base - v_b + d, x_bot, prm)["i_total"])

    low, high = min(v_w, v_b), max(v_w, v_b)
    half = 0.5 * (high - low)
    if node_current(low, half) > 0:
        base, lo, hi = low, 0.0, half
    else:
        base, lo, hi = high, -half, 0.0
    for _ in range(1200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if node_current(base, mid) < 0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    return {"v_m": base + d,
            "j": solve_dc_oracle(base - v_b + d, x_bot, prm)["i_total"]}


def set_time_oracle(v_cell, x0=None, prm=REF, max_steps=2_000_000):
    """Explicit-Euler time for the gap to close from x0 to x_min.

    Step size capped so the gap moves at most span/5000 per step; the
    total time is dominated by the slow initial phase, so the explicit
    scheme converges for this event time even though the final runaway
    is stiff.
    """
    x = prm["l"] if x0 is None else x0
    span = prm["l"] - prm["x_min"]
    t = 0.0
    dt_cap = None
    for _ in range(max_steps):
        if x <= prm["x_min"]:
            return t
        sol = solve_dc_oracle(v_cell, x, prm)
        rate = gap_rate_oracle(sol["i_ion"], prm)
        if rate >= 0.0:
            return math.inf
        dt = span / 5000.0 / abs(rate)
        if dt_cap is not None:
            dt = min(dt, dt_cap)
        x = max(prm["x_min"], x + rate * dt)
        t += dt
    raise RuntimeError("set_time_oracle step budget exhausted")


# ----------------------------------------------------------------------
# word arithmetic, straight from Python integers
# ----------------------------------------------------------------------

def bits_from_msb_string(s):
    """MSB-first binary string -> little-endian bit list."""
    if not s or set(s) - {"0", "1"}:
        raise ValueError(f"bad bit string {s!r}")
    return [int(c) for c in reversed(s)]


def signed_value(bits):
    """Two's-complement value of a little-endian bit list."""
    n = len(bits)
    raw = sum(b << k for k, b in enumerate(bits))
    return raw - (bits[-1] << n)


def add_oracle(a_bits, b_bits, c0):
    """(N+1)-bit two's-complement sum as a little-endian bit list."""
    n = len(a_bits)
    total = signed_value(a_bits) + signed_value(b_bits) + c0
    masked = total & ((1 << (n + 1)) - 1)
    return [(masked >> k) & 1 for k in range(n + 1)]


def sub_oracle(a_bits, b_bits):
    n = len(a_bits)
    total = signed_value(a_bits) - signed_value(b_bits)
    masked = total & ((1 << (n + 1)) - 1)
    return [(masked >> k) & 1 for k in range(n + 1)]


def xor_bit(a, b, c):
    return a ^ b ^ c


def majority_bit(a, b, c):
    return (a & b) | (a & c) | (b & c)
