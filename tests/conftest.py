import functools

import pytest
from hypothesis import HealthCheck, settings

from crsadder import executor
from crsadder.crs import crs_pulse
from crsadder.ecm import EcmParams
from crsadder.executor import calibrate_pulse, run_behavioral, run_device
from crsadder.microcode import gen_pc_adder, gen_tc_adder

settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def params():
    return EcmParams()


@pytest.fixture(scope="session")
def pulse(params):
    return calibrate_pulse(params)


def _bits(value, n):
    return [(value >> k) & 1 for k in range(n)]


@pytest.fixture(scope="session")
def cached_crs_pulse():
    """crs_pulse memoized across runs, for tests that patch it into the
    executor: a pulse is a pure function of its (frozen) inputs, so many
    device runs then compute each full-window march of their pulse
    tables, one per canonical start and voltage, once between them."""
    return functools.cache(crs_pulse)


@pytest.fixture(scope="session")
def device_matrix(params, pulse, cached_crs_pulse):
    """Device-level traces for both schemes over all 2-bit operand pairs.

    Shared across the cross-level, half-select and flagship tests; the
    32 runs share memoized pulses.
    """
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "crs_pulse", cached_crs_pulse)
        for scheme, gen in (("pc", gen_pc_adder), ("tc", gen_tc_adder)):
            prog = gen(2)
            for av in range(4):
                for bv in range(4):
                    a, b = _bits(av, 2), _bits(bv, 2)
                    out[(scheme, av, bv)] = run_device(
                        prog, a, b, 0, pp=pulse, ep=params)
    return out


@pytest.fixture(scope="session")
def behavioral_matrix():
    out = {}
    for scheme, gen in (("pc", gen_pc_adder), ("tc", gen_tc_adder)):
        prog = gen(2)
        for av in range(4):
            for bv in range(4):
                a, b = _bits(av, 2), _bits(bv, 2)
                out[(scheme, av, bv)] = run_behavioral(prog, a, b, 0)
    return out
