"""Microcode IR for crossbar signal schedules, plus the two adder compilers.

A Program is an ordered list of Steps.  Each Step assigns one symbolic
signal to the active wordline of each array and one to every bitline,
and may carry read directives (destructive read-outs whose spike verdict
is captured, optionally latched into a named register).

Signal levels on a line are three-valued at run time: logic '1', logic
'0', or ground.  Cells whose wordline and bitline carry equal logic
levels hold their state; a grounded line leaves every cell it touches
half-selected, which also holds.  Two signal kinds resolve dynamically:
a read-and-forward (this cycle's read-out of another cell, driven onto
the line within the same step) and a register reference (a value latched
by an earlier read step).

Two compilers are provided.  Both produce the sign-extended (n+1)-bit
two's-complement sum of n-bit operands by running every sum cell through
the carry chain in lockstep and peeling cell i off at step i.  Both
rest on two identities of the pair's update rule z' = fsm_next(z, wl, bl)
on a cell holding the carry c: (wl, bl) = (a, NOT b) leaves the carry-out
majority(a, b, c), and (a, b) followed by (b, carry-out) leaves the sum
a XOR b XOR c.  The carry update and the first sum update share the
wordline a, so one "carry" step drives both; "sum2" is the second:

  precalculation scheme ("pc"): a second array of n+1 cells precomputes
  every carry; the finishing steps read carry i+1 and forward it into
  sum cell i within one cycle.  2(n+1) cells, 2(n+1)+2 cycles.

  toggle-cell scheme ("tc"): a single extra cell computes each carry in
  turn; each is read into a register, consumed one cycle later, and
  written back.  n+2 cells, 4n+5 cycles.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


ANNOTATIONS = ("init_read", "program_c0", "carry", "sum2", "read",
               "writeback")

SCHEME_CYCLES = {"pc": lambda n: 2 * (n + 1) + 2,
                 "tc": lambda n: 4 * n + 5}
SCHEME_DEVICES = {"pc": lambda n: 2 * (n + 1),
                  "tc": lambda n: n + 2}


@dataclass(frozen=True, order=True)
class CellAddr:
    array: int
    wl: int
    bl: int

    def __post_init__(self):
        if min(self.array, self.wl, self.bl) < 0:
            raise ValueError("cell address indices must be >= 0")

    def __str__(self):
        return f"A{self.array}/{self.wl}/{self.bl}"

    @classmethod
    def parse(cls, s):
        m = re.fullmatch(r"A(\d+)/(\d+)/(\d+)", s)
        if not m:
            raise ValueError(f"malformed cell address {s!r}")
        return cls(*(int(g) for g in m.groups()))


# ======================================================================
# signals
# ======================================================================

_SIMPLE_KINDS = ("const0", "const1", "ground", "carry_in")
_INDEXED_KINDS = ("a", "b", "not_b")


@dataclass(frozen=True)
class Signal:
    """Symbolic line level; see module docstring for the run-time kinds."""

    kind: str
    index: int | None = None        # operand bit index for a/b/not_b
    source: CellAddr | None = None  # read_fwd target
    name: str | None = None         # reg register name

    def __post_init__(self):
        k = self.kind
        if k in _SIMPLE_KINDS:
            ok = self.index is None and self.source is None and self.name is None
        elif k in _INDEXED_KINDS:
            ok = (isinstance(self.index, int) and self.index >= 0
                  and self.source is None and self.name is None)
        elif k == "read_fwd":
            ok = (isinstance(self.source, CellAddr)
                  and self.index is None and self.name is None)
        elif k == "reg":
            ok = (isinstance(self.name, str) and self.name != ""
                  and self.index is None and self.source is None)
        else:
            raise ValueError(f"unknown signal kind {k!r}")
        if not ok:
            raise ValueError(f"malformed {k} signal")

    def __str__(self):
        if self.kind in _SIMPLE_KINDS:
            return self.kind
        if self.kind in _INDEXED_KINDS:
            return f"{self.kind}:{self.index}"
        if self.kind == "read_fwd":
            return f"read_fwd:{self.source}"
        return f"reg:{self.name}"

    @classmethod
    def parse(cls, s):
        if s in _SIMPLE_KINDS:
            return cls(s)
        head, sep, rest = s.partition(":")
        if sep and head in _INDEXED_KINDS and rest.isdigit():
            return cls(head, index=int(rest))
        if sep and head == "read_fwd":
            return cls("read_fwd", source=CellAddr.parse(rest))
        if sep and head == "reg" and rest:
            return cls("reg", name=rest)
        raise ValueError(f"malformed signal {s!r}")


CONST0 = Signal("const0")
CONST1 = Signal("const1")
GROUND = Signal("ground")
CARRY_IN = Signal("carry_in")


def input_a(i):
    return Signal("a", index=i)


def input_b(i):
    return Signal("b", index=i)


def not_b(i):
    return Signal("not_b", index=i)


def read_forward(cell):
    return Signal("read_fwd", source=cell)


def reg(name):
    return Signal("reg", name=name)


# ======================================================================
# steps and programs
# ======================================================================

@dataclass(frozen=True)
class ArrayDrive:
    """Signals applied to one array in one step: a single active
    wordline and one signal per bitline (ascending bitline index)."""

    array: int
    wl_index: int
    wl: Signal
    bls: tuple[Signal, ...]


@dataclass(frozen=True)
class ReadDirective:
    cell: CellAddr
    latch: str | None = None   # register name, None = verdict only


@dataclass(frozen=True)
class Step:
    annotation: str
    drives: tuple[ArrayDrive, ...]
    reads: tuple[ReadDirective, ...] = ()

    def __post_init__(self):
        if self.annotation not in ANNOTATIONS:
            raise ValueError(f"unknown annotation {self.annotation!r}")


@dataclass(frozen=True)
class Program:
    scheme: str
    n: int
    subtract: bool
    steps: tuple[Step, ...]
    result_cells: tuple[CellAddr, ...]   # significance order, n+1 cells
    used_cells: tuple[CellAddr, ...]


# ======================================================================
# compilers
# ======================================================================

def _check_width(n):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"operand width must be an integer >= 1, got {n!r}")


def gen_pc_adder(n, subtract=False):
    """Compile the two-array precalculation schedule for n-bit operands.

    Fixed layout: sum cells at bitlines 0..n of array 0, carry cells at
    bitlines 0..n of array 1 (carry cell i ends up holding carry i+1),
    both on wordline 0.  subtract complements every operand-b signal and
    forces the carry-in to 1, turning a + b into a - b.
    """
    _check_width(n)
    # subtract swaps the roles of b and NOT b at signal level
    sig_b = (lambda i: not_b(i)) if subtract else (lambda i: input_b(i))
    sig_nb = (lambda i: input_b(i)) if subtract else (lambda i: not_b(i))
    width = n + 1
    calc_cells = tuple(CellAddr(0, 0, k) for k in range(width))
    aux_cells = tuple(CellAddr(1, 0, k) for k in range(width))

    def both(wl_c, bls_c, wl_a, bls_a):
        return (ArrayDrive(0, 0, wl_c, tuple(bls_c)),
                ArrayDrive(1, 0, wl_a, tuple(bls_a)))

    steps = [
        Step("init_read", both(CONST1, [CONST0] * width,
                               CONST1, [CONST0] * width)),
        # every cell is ONE now, so bl=const1 holds where carry_in is 1
        # and writes ZERO where it is 0
        Step("program_c0", both(CARRY_IN, [CONST1] * width,
                                CARRY_IN, [CONST1] * width)),
    ]
    for i in range(width):
        idx = min(i, n - 1)   # significance n reuses the operand MSBs
        calc_bls = [GROUND if k < i else sig_b(idx) if k == i else sig_nb(idx)
                    for k in range(width)]
        aux_bls = [GROUND if k < i else sig_nb(idx) for k in range(width)]
        steps.append(Step("carry", both(input_a(idx), calc_bls,
                                        input_a(idx), aux_bls)))
    for i in range(width):
        idx = min(i, n - 1)
        calc_bls = [read_forward(aux_cells[i]) if k == i else GROUND
                    for k in range(width)]
        aux_bls = [CONST0 if k == i else GROUND for k in range(width)]
        steps.append(Step("sum2",
                          both(sig_b(idx), calc_bls, CONST1, aux_bls),
                          reads=(ReadDirective(aux_cells[i], f"c{i + 1}"),)))
    return Program("pc", n, subtract, tuple(steps),
                   calc_cells, calc_cells + aux_cells)


def gen_tc_adder(n, subtract=False):
    """Compile the single-array toggle-cell schedule for n-bit operands.

    Fixed layout on wordline 0 of array 0: the carry cell at bitline 0,
    sum cells at bitlines 1..n+1.  Per significance: one lockstep
    carry/sum step, a read of the carry cell into register c<i+1>, the
    second sum update consuming that register, and (except at the top
    significance) a write-back restoring the carry into the cell.
    """
    _check_width(n)
    sig_b = (lambda i: not_b(i)) if subtract else (lambda i: input_b(i))
    sig_nb = (lambda i: input_b(i)) if subtract else (lambda i: not_b(i))
    width = n + 1
    n_bls = width + 1
    tc_cell = CellAddr(0, 0, 0)
    sum_cells = tuple(CellAddr(0, 0, k + 1) for k in range(width))

    def drive(wl, bls):
        return (ArrayDrive(0, 0, wl, tuple(bls)),)

    def bls_with(mapping, default=GROUND):
        return [mapping.get(k, default) for k in range(n_bls)]

    steps = [
        Step("init_read", drive(CONST1, [CONST0] * n_bls)),
        Step("program_c0", drive(CARRY_IN, [CONST1] * n_bls)),
    ]
    for i in range(width):
        idx = min(i, n - 1)
        carry_bls = [sig_nb(idx)] + [
            GROUND if k < i else sig_b(idx) if k == i else sig_nb(idx)
            for k in range(width)]
        steps.append(Step("carry", drive(input_a(idx), carry_bls)))
        steps.append(Step("read",
                          drive(CONST1, bls_with({0: CONST0})),
                          reads=(ReadDirective(tc_cell, f"c{i + 1}"),)))
        steps.append(Step("sum2", drive(sig_b(idx),
                                        bls_with({i + 1: reg(f"c{i + 1}")}))))
        if i < width - 1:
            # the read left the carry cell at ONE: bl=const1 holds a
            # latched 1 and writes a latched 0
            steps.append(Step("writeback",
                              drive(reg(f"c{i + 1}"),
                                    bls_with({0: CONST1}))))
    return Program("tc", n, subtract, tuple(steps),
                   sum_cells, (tc_cell,) + sum_cells)


GENERATORS = {"pc": gen_pc_adder, "tc": gen_tc_adder}


# ======================================================================
# validation
# ======================================================================

def validate_program(p):
    """Structural diagnostics; an empty list means the program is valid."""
    diags = []
    if p.scheme in SCHEME_CYCLES:
        want = SCHEME_CYCLES[p.scheme](p.n)
        if len(p.steps) != want:
            diags.append(f"step count {len(p.steps)} != scheme formula {want}")
        want_dev = SCHEME_DEVICES[p.scheme](p.n)
        if len(p.used_cells) != want_dev:
            diags.append(
                f"device count {len(p.used_cells)} != scheme formula {want_dev}")
    if len(set(p.result_cells)) != len(p.result_cells):
        diags.append("result cells are not pairwise distinct")
    if len(p.result_cells) != p.n + 1:
        diags.append(f"result width {len(p.result_cells)} != n+1 = {p.n + 1}")
    used = set(p.used_cells)
    for c in p.result_cells:
        if c not in used:
            diags.append(f"result cell {c} not among used cells")
    per_array_bls = {}
    for c in p.used_cells:
        per_array_bls.setdefault((c.array, c.wl), set()).add(c.bl)
    latched = set()
    for si, step in enumerate(p.steps):
        arrays_seen = set()
        step_reads = {r.cell for r in step.reads}
        for r in step.reads:
            if r.cell not in used:
                diags.append(f"step {si}: read of undeclared cell {r.cell}")
        for d in step.drives:
            if d.array in arrays_seen:
                diags.append(f"step {si}: array {d.array} driven twice")
            arrays_seen.add(d.array)
            if d.wl.kind == "read_fwd":
                diags.append(f"step {si}: array {d.array} wordline carries a "
                             f"forward; forwards drive bitlines only")
            covered = per_array_bls.get((d.array, d.wl_index), set())
            if covered and len(d.bls) <= max(covered):
                diags.append(
                    f"step {si}: array {d.array} drive leaves used bitlines "
                    f"unassigned")
            for sig in (d.wl, *d.bls):
                if sig.kind in _INDEXED_KINDS and sig.index >= p.n:
                    diags.append(f"step {si}: signal {sig} out of range for "
                                 f"n={p.n}")
                if sig.kind == "read_fwd" and sig.source not in step_reads:
                    diags.append(
                        f"step {si}: forward from {sig.source} which is not "
                        f"read this cycle")
                if sig.kind == "reg" and sig.name not in latched:
                    diags.append(
                        f"step {si}: register {sig.name!r} used before "
                        f"any latch")
        for r in step.reads:
            if r.latch:
                latched.add(r.latch)
    return diags


# ======================================================================
# serialization
# ======================================================================

def program_to_json(p):
    doc = {
        "scheme": p.scheme,
        "n": p.n,
        "subtract": p.subtract,
        "result_cells": [str(c) for c in p.result_cells],
        "used_cells": [str(c) for c in p.used_cells],
        "steps": [
            {
                "annotation": s.annotation,
                "arrays": [
                    {
                        "array": d.array,
                        "wl_index": d.wl_index,
                        "wl": str(d.wl),
                        "bls": [str(b) for b in d.bls],
                    }
                    for d in s.drives
                ],
                "reads": [str(r.cell) for r in s.reads],
                "latches": [r.latch for r in s.reads],
            }
            for s in p.steps
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def program_from_json(text):
    doc = json.loads(text)
    steps = []
    for s in doc["steps"]:
        drives = tuple(
            ArrayDrive(d["array"], d["wl_index"], Signal.parse(d["wl"]),
                       tuple(Signal.parse(b) for b in d["bls"]))
            for d in s["arrays"])
        reads = tuple(
            ReadDirective(CellAddr.parse(c), latch)
            for c, latch in zip(s["reads"], s["latches"]))
        steps.append(Step(s["annotation"], drives, reads))
    return Program(doc["scheme"], doc["n"], doc["subtract"], tuple(steps),
                   tuple(CellAddr.parse(c) for c in doc["result_cells"]),
                   tuple(CellAddr.parse(c) for c in doc["used_cells"]))


def _sig_label(sig):
    return {
        "const0": "'0'", "const1": "'1'", "ground": "gnd",
        "carry_in": "c_in",
    }.get(sig.kind) or {
        "a": f"a{sig.index}", "b": f"b{sig.index}", "not_b": f"!b{sig.index}",
        "read_fwd": f"rd({sig.source})", "reg": f"[{sig.name}]",
    }[sig.kind]


def render_step_table(p):
    """Human-readable listing; bitlines printed high to low."""
    lines = [f"scheme={p.scheme} n={p.n} subtract={str(p.subtract).lower()} "
             f"cycles={len(p.steps)} devices={len(p.used_cells)}"]
    arrays = sorted({d.array for s in p.steps for d in s.drives})
    header = ["step", "annotation"]
    for a in arrays:
        header += [f"wl(A{a})", f"bls(A{a} hi..lo)"]
    header.append("reads")
    rows = [header]
    for si, s in enumerate(p.steps, start=1):
        row = [str(si), s.annotation]
        for a in arrays:
            d = next((d for d in s.drives if d.array == a), None)
            if d is None:
                row += ["-", "-"]
            else:
                row += [_sig_label(d.wl),
                        " ".join(_sig_label(b) for b in reversed(d.bls))]
        row.append(" ".join(
            f"{r.cell}->{r.latch}" if r.latch else str(r.cell)
            for r in s.reads) or "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
              for r in rows]
    return "\n".join(lines) + "\n"


# ======================================================================
# cost comparison
# ======================================================================

@dataclass(frozen=True)
class ComparisonRow:
    scheme: str
    devices: int
    cycles: int
    common_crossbar: bool


def comparison_table(n):
    """Cost rows for the two schemes here and three published adders."""
    _check_width(n)
    return [
        ComparisonRow("Lehtonen", 3 * n + 5, 88 * n + 48, True),
        ComparisonRow("Kvatinsky serial", 3 * n + 3, 29 * n, True),
        ComparisonRow("Kvatinsky parallel", 9 * n, 5 * n + 18, False),
        ComparisonRow("PC adder", SCHEME_DEVICES["pc"](n),
                      SCHEME_CYCLES["pc"](n), True),
        ComparisonRow("TC adder", SCHEME_DEVICES["tc"](n),
                      SCHEME_CYCLES["tc"](n), True),
    ]


def comparison_markdown(n_values):
    """Markdown table per width; best devices/cycles values marked *."""
    out = []
    for n in n_values:
        rows = comparison_table(n)
        best_dev = min(r.devices for r in rows)
        best_cyc = min(r.cycles for r in rows)
        out.append(f"### N = {n}\n")
        out.append("| scheme | devices | cycles | common crossbar |")
        out.append("| --- | ---: | ---: | :---: |")
        for r in rows:
            dev = f"**{r.devices}***" if r.devices == best_dev else str(r.devices)
            cyc = f"**{r.cycles}***" if r.cycles == best_cyc else str(r.cycles)
            out.append(f"| {r.scheme} | {dev} | {cyc} | "
                       f"{'yes' if r.common_crossbar else 'no'} |")
        out.append("")
    return "\n".join(out)


def comparison_csv(n_values):
    lines = ["n,scheme,devices,cycles,common_crossbar,best_devices,best_cycles"]
    for n in n_values:
        rows = comparison_table(n)
        best_dev = min(r.devices for r in rows)
        best_cyc = min(r.cycles for r in rows)
        for r in rows:
            lines.append(
                f"{n},{r.scheme},{r.devices},{r.cycles},"
                f"{'yes' if r.common_crossbar else 'no'},"
                f"{'yes' if r.devices == best_dev else 'no'},"
                f"{'yes' if r.cycles == best_cyc else 'no'}")
    return "\n".join(lines) + "\n"
