"""The three benchmark workloads.

Each workload draws its inputs from the run's seed, sets up the package
(compile, and on device-adder calibrate), runs one operation at a time
and checks every output.  Calls into the package go through module
attributes at call time, so a tracer that rebinds those attributes sees
them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

# (scheme, subtract) in the order each workload rotates through them
KINDS = (("pc", False), ("tc", False), ("pc", True), ("tc", True))


def kind_name(scheme, subtract):
    return f"{scheme}-{'sub' if subtract else 'add'}"


def bits(value, n):
    return [(value >> k) & 1 for k in range(n)]


class CheckFailed(Exception):
    """An output disagrees with its reference."""


class _Adder:
    """Shared parts of the two adder workloads; subclasses set n."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.programs = {}

    def compile(self):
        gens = {"pc": self.pkg.microcode.gen_pc_adder,
                "tc": self.pkg.microcode.gen_tc_adder}
        self.programs = {k: gens[k[0]](self.n, subtract=k[1]) for k in KINDS}

    def reference(self, op):
        (scheme, subtract), a, b = op
        logic = self.pkg.logic
        if subtract:
            return logic.sub_words_reference(a, b)
        return logic.add_words_reference(a, b, 0)

    def check_result(self, op, trace):
        want = self.reference(op)
        if list(trace.result_bits) != want:
            raise CheckFailed(f"{self.label(op)}: result {list(trace.result_bits)} "
                              f"!= reference {want}")

    @staticmethod
    def label(op):
        (scheme, subtract), a, b = op
        return f"{kind_name(scheme, subtract)} a={a} b={b}"

    @staticmethod
    def scheme(op):
        return op[0][0]

    @staticmethod
    def signature(trace):
        return (tuple(trace.result_bits),
                tuple((r.step_index, r.cell, r.latch, r.spike, r.bit)
                      for r in trace.reads))


class DeviceAdder(_Adder):
    """run_device at n=2, both schemes, add and subtract."""

    name = "device-adder"
    n = 2
    setup_repeats = 5
    traced_ops = 4          # one of each kind

    def setup(self):
        self.compile()
        self.ep = self.pkg.ecm.EcmParams()
        self.pp = self.pkg.executor.calibrate_pulse(self.ep)

    def ops(self, rng):
        """Kinds in rotation; the 16 operand pairs in a seeded order, each
        once, which narrows the spread of work between seeds."""
        pairs = [(a, b) for a in range(4) for b in range(4)]
        rng.shuffle(pairs)
        return itertools.cycle([(kind, bits(a, self.n), bits(b, self.n))
                                for kind, (a, b) in zip(itertools.cycle(KINDS),
                                                        pairs)])

    def run(self, op):
        kind, a, b = op
        return self.pkg.executor.run_device(self.programs[kind], a, b, 0,
                                            pp=self.pp, ep=self.ep)

    def check(self, op, trace):
        """Device result and verdicts equal the behavioral run and the reference.

        Returns the run's read margin: min over step reads of
        |log10(peak / i_spike)|.
        """
        kind, a, b = op
        self.check_result(op, trace)
        beh = self.pkg.executor.run_behavioral(self.programs[kind], a, b, 0)
        if self.signature(trace) != self.signature(beh):
            raise CheckFailed(f"{self.label(op)}: device verdicts differ "
                              f"from behavioral")
        peaks = [r.peak_current for r in trace.reads if r.peak_current is not None]
        return {"read_margin_dec": min(abs(math.log10(pk / self.pp.i_spike))
                                       for pk in peaks)}


class BehavioralWide(_Adder):
    """run_behavioral at n=64, both schemes, add and subtract."""

    name = "behavioral-wide"
    n = 64
    pairs = 8
    setup_repeats = 11
    traced_ops = 200

    def setup(self):
        self.compile()

    def ops(self, rng):
        """Seeded random word pairs, each in all four kinds, repeated in
        order; the repeats give each operation a best time (run.best_rate)."""
        ops = []
        for _ in range(self.pairs):
            a = bits(rng.getrandbits(self.n), self.n)
            b = bits(rng.getrandbits(self.n), self.n)
            ops += [(kind, a, b) for kind in KINDS]
        return itertools.cycle(ops)

    def run(self, op):
        kind, a, b = op
        return self.pkg.executor.run_behavioral(self.programs[kind], a, b, 0)

    def check(self, op, trace):
        self.check_result(op, trace)
        return {}


# parameters perturbed by characterize, one at a time
PERTURBED = ("j0", "a_fil", "sigma_ion", "t", "dw0")
PERTURB_MAX = 0.05


class Characterize:
    """Calibration and both I-V sweeps over perturbed cell parameter sets.

    The sets come in rounds of eleven: the default cell, then each
    perturbed parameter scaled by 1+u and by 1-u.  Every round draws
    fresh seeded magnitudes u in [1%, 5%], so no perturbed set repeats.
    """

    name = "characterize"
    setup_repeats = 11
    traced_ops = 11         # every set once

    def __init__(self, pkg):
        self.pkg = pkg

    def setup(self):
        pass

    def ops(self, rng):
        base = self.pkg.ecm.EcmParams()
        while True:
            yield "default", base
            for name in PERTURBED:
                u = rng.uniform(0.01, PERTURB_MAX)
                for sign in (+1, -1):
                    factor = 1.0 + sign * u
                    yield (f"{name}*{factor!r}",
                           dataclasses.replace(base, **{name: getattr(base, name)
                                                        * factor}))

    def run(self, op):
        _, p = op
        ecm, crs, executor = self.pkg.ecm, self.pkg.crs, self.pkg.executor
        t0 = time.perf_counter()
        pp = executor.calibrate_pulse(p)
        t1 = time.perf_counter()
        _, th = crs.sweep_iv_crs(crs.DEFAULT_CRS_AMPLITUDE, ecm.DEFAULT_SWEEP_RATE,
                                 crs.crs_state_for_bit(0, p), p)
        t2 = time.perf_counter()
        rows = ecm.sweep_iv_unit(ecm.DEFAULT_UNIT_AMPLITUDE, ecm.DEFAULT_SWEEP_RATE,
                                 ecm.EcmState(p.l), p)
        t3 = time.perf_counter()
        return {"pulse": pp, "thresholds": th, "unit_rows": rows,
                "phases": {"calibrate_s": t1 - t0, "sweep_crs_s": t2 - t1,
                           "sweep_unit_s": t3 - t2}}

    def check(self, op, out):
        label, p = op
        if not isinstance(out["pulse"], self.pkg.executor.PulseParams):
            raise CheckFailed(f"{label}: calibration returned {out['pulse']!r}")
        th = out["thresholds"]
        if None in (th.v_th1, th.v_th2, th.v_th3, th.v_th4):
            raise CheckFailed(f"{label}: CRS sweep missed a threshold: {th}")
        v_set, v_reset = self.pkg.ecm.extract_unit_landmarks(out["unit_rows"], p)
        if v_set is None or v_reset is None:
            raise CheckFailed(f"{label}: unit sweep gave v_set={v_set}, "
                              f"v_reset={v_reset}")
        return dict(out["phases"])

    @staticmethod
    def label(op):
        return op[0]

    @staticmethod
    def scheme(op):
        return None

    @staticmethod
    def signature(out):
        return (out["pulse"], out["thresholds"],
                tuple(r[:3] for r in out["unit_rows"]))


WORKLOADS = {w.name: w for w in (DeviceAdder, Characterize, BehavioralWide)}
