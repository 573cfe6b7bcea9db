"""Gate-level IR, qubit registers, and T-resource accounting.

A circuit is an ordered list of gates and macros over named, disjoint qubit
registers.  Resource accounting follows the fault-tolerant cost model:
T/T`/G/G` gates cost one T each, Clifford gates (including fanout-CNOT of any
arity) are free and contribute no depth, rotations cost a configurable
synthesis T-count, and macros carry declared costs.

T-depth is the longest path in the qubit-dependency DAG, where consecutive
uses of a qubit chain an edge unless both uses are pure controls (diagonal in
the computational basis), which commute and may share a layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class CircuitError(Exception):
    """Raised for malformed circuit construction."""


class GateKind(str, Enum):
    X = "X"
    Z = "Z"
    H = "H"
    S = "S"
    SDG = "SDG"
    T = "T"
    TDG = "TDG"
    G = "G"
    GDG = "GDG"
    CNOT = "CNOT"
    FANOUT_CNOT = "FANOUT_CNOT"
    CZ = "CZ"
    SWAP = "SWAP"
    CSWAP = "CSWAP"
    TOFFOLI = "TOFFOLI"
    MCX = "MCX"
    RY = "RY"
    CRY = "CRY"
    CCRY = "CCRY"


class MacroKind(str, Enum):
    UNARY_SELECT = "UNARY_SELECT"
    UNARY_STEP = "UNARY_STEP"
    AND_TOFFOLI = "AND_TOFFOLI"
    PARALLEL_CSWAP_CLEAN = "PARALLEL_CSWAP_CLEAN"


# Kinds whose targets count as one unit of T cost.
_T_WEIGHT_ONE = frozenset((GateKind.T, GateKind.TDG, GateKind.G, GateKind.GDG))
# Rotation kinds weighted by the synthesis cost parameter, in units of it.
_RY_UNITS = {GateKind.RY: 1, GateKind.CRY: 2, GateKind.CCRY: 2}
# Per gate kind: (T weight, R_y units).
_GATE_WEIGHTS = {k: (int(k in _T_WEIGHT_ONE), _RY_UNITS.get(k, 0))
                 for k in GateKind}

_EXPECTED_CONTROLS = {
    GateKind.CNOT: 1,
    GateKind.FANOUT_CNOT: 1,
    GateKind.CSWAP: 1,
    GateKind.TOFFOLI: 2,
    GateKind.CRY: 1,
    GateKind.CCRY: 2,
}
_EXPECTED_TARGETS = {
    GateKind.CZ: 2,
    GateKind.SWAP: 2,
    GateKind.CSWAP: 2,
}

_ADJOINT_KIND = {
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.G: GateKind.GDG,
    GateKind.GDG: GateKind.G,
}


class Gate:
    """One gate: kind, target qubits, polarized controls, optional angle.

    Controls are ``(qubit, positive)`` pairs; ``positive=False`` is an
    open-circle control.  Angles are radians and only valid for the RY family.
    """

    __slots__ = ("kind", "targets", "controls", "angle")

    def __init__(self, kind, targets, controls=(), angle=None):
        self.kind = kind
        self.targets = tuple(targets)
        self.controls = tuple(controls)
        self.angle = angle

    def validate(self):
        kind = self.kind
        want_c = _EXPECTED_CONTROLS.get(kind)
        if want_c is not None and len(self.controls) != want_c:
            raise CircuitError(f"{kind.value} expects {want_c} control(s)")
        if kind is GateKind.MCX:
            if not self.controls:
                raise CircuitError("MCX requires at least one control")
        elif want_c is None and self.controls:
            raise CircuitError(f"{kind.value} takes no controls")
        want_t = _EXPECTED_TARGETS.get(kind, None)
        if want_t is None and kind is not GateKind.FANOUT_CNOT:
            want_t = 1
        if want_t is not None and len(self.targets) != want_t:
            raise CircuitError(f"{kind.value} expects {want_t} target(s)")
        if kind is GateKind.FANOUT_CNOT and not self.targets:
            raise CircuitError("FANOUT_CNOT requires at least one target")
        if (self.angle is None) == (kind in _RY_UNITS):
            raise CircuitError(f"angle mismatch for {kind.value}")
        qubits = list(self.targets) + [q for q, _ in self.controls]
        if len(set(qubits)) != len(qubits):
            raise CircuitError("gate qubits must be distinct")

    def qubits(self):
        return self.targets + tuple(q for q, _ in self.controls)

    def adjoint(self):
        """The inverse gate; a self-inverse gate is its own (ops are never
        mutated, so adjoint legs share those gate objects)."""
        kind = _ADJOINT_KIND.get(self.kind)
        if kind is not None:
            return Gate(kind, self.targets, self.controls)
        if self.angle is None:
            return self
        return Gate(self.kind, self.targets, self.controls, -self.angle)

    def __eq__(self, other):
        return (
            isinstance(other, Gate)
            and self.kind == other.kind
            and self.targets == other.targets
            and self.controls == other.controls
            and _angles_equal(self.angle, other.angle)
        )

    def __repr__(self):
        extra = f", angle={self.angle:.6g}" if self.angle is not None else ""
        return f"Gate({self.kind.value}, t={self.targets}, c={self.controls}{extra})"


def adjoint_ops(ops):
    """The adjoint of an op sequence: each op inverted, in reverse order."""
    return [op.adjoint() for op in reversed(ops)]


def _angles_equal(a, b):
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=0, abs_tol=1e-9)


class Macro:
    """Opaque costed construction with an exact unitary expansion.

    The declared cost follows the measurement-assisted accounting (e.g. the
    T-depth-1 Toffoli); the expansion is the measurement-free unitary used by
    the simulator.  Every qubit a macro uses, scratch qubits included, is a
    qubit of one of the circuit's registers.

    A macro keeps its recipe, not its gates: ``recipe(*args)`` returns the
    forward expansion, a module-level function so that no macro holds a
    closure, and ``inverted`` marks the adjoint.  Counting reads only the
    declared cost and qubit roles, sorted tuples of the qubits the macro may
    change (``full``) and of those it only reads (``ctrl``); the text writer
    and the simulator build the expansion.
    """

    __slots__ = ("kind", "params", "recipe", "args", "inverted", "t_count",
                 "t_depth", "full", "ctrl")

    def __init__(self, kind, params, recipe, args, t_count, t_depth, full,
                 ctrl, inverted=False):
        self.kind = kind
        self.params = params
        self.recipe = recipe
        self.args = args
        self.inverted = inverted
        self.t_count = int(t_count)
        self.t_depth = int(t_depth)
        self.full = tuple(sorted(full))
        self.ctrl = tuple(sorted(ctrl))
        if not self.full and not self.ctrl:
            raise CircuitError(f"{kind.value} macro declares no qubit")

    @property
    def expansion(self):
        gates = self.recipe(*self.args)
        return tuple(adjoint_ops(gates) if self.inverted else gates)

    def qubits(self):
        return self.full + self.ctrl

    def adjoint(self):
        """Inverting the expansion keeps every qubit's role."""
        inverse = Macro.__new__(Macro)
        for name in Macro.__slots__:
            setattr(inverse, name, getattr(self, name))
        inverse.inverted = not self.inverted
        return inverse

    def __eq__(self, other):
        return (
            isinstance(other, Macro)
            and self.kind == other.kind
            and self.params == other.params
            and self.expansion == other.expansion
            and (self.t_count, self.t_depth) == (other.t_count, other.t_depth)
        )

    def __repr__(self):
        return (f"Macro({self.kind.value}, tc={self.t_count}, td={self.t_depth}, "
                f"ng={len(self.expansion)})")


def stored_gates(gates):
    """The recipe of a macro that holds its gates (parsed or remapped)."""
    return gates


@dataclass(frozen=True)
class QubitRegister:
    name: str
    offset: int
    size: int

    def __post_init__(self):
        if self.offset < 0 or self.size <= 0:
            raise CircuitError(f"bad register {self.name}: offset/size")

    @property
    def qubits(self):
        return tuple(range(self.offset, self.offset + self.size))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.qubits[i]
        if not 0 <= i < self.size:
            raise IndexError(f"register {self.name}[{i}] out of range")
        return self.offset + i


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    t_count: int
    t_depth: int
    breakdown: dict = field(default_factory=dict)

    def as_tuple(self):
        return (self.qubits, self.t_count, self.t_depth)

    def to_dict(self):
        return {
            "qubits": self.qubits,
            "t_count": self.t_count,
            "t_depth": self.t_depth,
            "breakdown": {k: {"t_count": v[0], "t_depth": v[1]}
                          for k, v in self.breakdown.items()},
        }


class Circuit:
    """Immutable ordered op sequence over a fixed register layout."""

    __slots__ = ("registers", "ops", "total_qubits", "stages")

    def __init__(self, registers, ops, total_qubits, stages=None):
        self.registers = tuple(registers)
        self.ops = tuple(ops)
        self.total_qubits = int(total_qubits)
        self.stages = tuple(stages) if stages is not None else ()
        _check_tiling(self.registers, self.total_qubits)
        _check_stages(self.stages, len(self.ops))

    def adjoint(self):
        return Circuit(self.registers, adjoint_ops(self.ops), self.total_qubits)

    def register(self, name):
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(name)

    def __len__(self):
        return len(self.ops)


def _check_tiling(registers, total):
    covered = 0
    last = 0
    for reg in sorted(registers, key=lambda r: r.offset):
        if reg.offset != last:
            raise CircuitError(f"registers must tile: gap before {reg.name}")
        last = reg.offset + reg.size
        covered += reg.size
    if registers and (covered != total or last != total):
        raise CircuitError("registers must tile [0, total_qubits)")


def _check_stages(stages, num_ops):
    """Stages are ``(name, lo, hi)`` op ranges, in order and disjoint."""
    last = 0
    for name, lo, hi in stages:
        if not last <= lo <= hi <= num_ops:
            raise CircuitError(f"stage {name} ops [{lo}, {hi}) overlap the "
                               f"previous stage or leave [0, {num_ops}]")
        last = hi


def _check_op(op, total):
    if isinstance(op, Gate):
        op.validate()
    for q in op.qubits():
        if not 0 <= q < total:
            raise CircuitError(f"qubit {q} out of range [0, {total})")


class CircuitBuilder:
    """Mutable builder used by the generators; produces an immutable Circuit."""

    def __init__(self):
        self._registers = []
        self._ops = []
        self._total = 0
        self._stages = []
        self._stage_name = None
        self._stage_start = 0
        # Gate shapes already validated.  ``_total`` only grows, so a gate
        # whose qubits were in range stays in range.
        self._valid = set()

    def allocate(self, name, size):
        if size <= 0:
            raise CircuitError(f"register {name} must have positive size")
        reg = QubitRegister(name, self._total, size)
        self._registers.append(reg)
        self._total += size
        return reg

    def maybe_allocate(self, name, size):
        """Allocate a register if size > 0, else return None."""
        return self.allocate(name, size) if size > 0 else None

    @property
    def total_qubits(self):
        return self._total

    def begin_stage(self, name):
        self.end_stage()
        self._stage_name = name
        self._stage_start = len(self._ops)

    def end_stage(self):
        if self._stage_name is not None:
            self._stages.append((self._stage_name, self._stage_start, len(self._ops)))
            self._stage_name = None

    def add(self, op):
        self.extend((op,))

    def extend(self, ops):
        valid = self._valid
        append = self._ops.append
        for op in ops:
            if isinstance(op, Gate):
                key = (op.kind, op.targets, op.controls, op.angle is None)
                if key not in valid:
                    _check_op(op, self._total)
                    valid.add(key)
            else:
                _check_op(op, self._total)
            append(op)

    def gate(self, kind, targets, controls=(), angle=None):
        if isinstance(targets, int):
            targets = (targets,)
        g = Gate(kind, targets, controls, angle)
        self.add(g)
        return g

    def build(self):
        self.end_stage()
        return Circuit(self._registers, self._ops, self._total, self._stages)


def _op_cost(op):
    """Return (t_count, t_depth, ry_units, full_qubits, control_qubits).

    An op's T-count is ``t_count + ry_units * ry_cost`` and its T-depth
    ``t_depth + ry_units * ry_cost``.  Control-only qubits are diagonal uses:
    two of them on one qubit commute.
    """
    if isinstance(op, Macro):
        return op.t_count, op.t_depth, 0, op.full, op.ctrl
    w, units = _GATE_WEIGHTS[op.kind]
    if op.kind is GateKind.CZ:
        return w, w, units, (), op.targets
    return w, w, units, op.targets, [q for q, _ in op.controls]


def count_resources(circuit: Circuit, ry_cost: int = 0) -> ResourceReport:
    """The ``count_resources_at`` report for the single value ``ry_cost``."""
    return count_resources_at(circuit, (ry_cost,))[0]


def count_resources_at(circuit: Circuit, ry_costs) -> list:
    """Count qubits, T-count, scheduled T-depth and the per-stage breakdown,
    one ``ResourceReport`` per value in ``ry_costs``.

    An R_y value is the Clifford+T synthesis T-count charged per RY gate
    (rotations are simulated exactly but costed at this rate).  Qubits are
    the register total: every scratch qubit is a register qubit.  The
    breakdown gives each stage's (T-count, T-depth), counted as if the
    stage's ops were a circuit of their own and summed over stages that
    share a name; it is empty when the circuit has no stages.

    One pass schedules every op, for every R_y value, on two depth
    frontiers: the circuit's and a stage-local one that restarts at each
    stage start (ops between stages update a stage frontier nobody reads).
    A frontier holds, per qubit, the finish of the last full use
    (``last_full``) and the latest finish of any use (``busy``): a full use
    waits for ``busy``, a control-only use only for ``last_full``.  A
    frontier's T-depth is its largest ``busy``.  T-count is affine in R_y
    and is summed once; T-depth is a longest path, whose critical path may
    change with R_y, so each value keeps frontiers of its own.
    """
    ops = circuit.ops
    total = circuit.total_qubits
    # Per R_y value: [ry, last_full, busy, s_full, s_busy].
    states = [[ry, [0] * total, [0] * total, None, None] for ry in ry_costs]
    t_count = ry_units = 0
    stage_counts = []
    segments = []
    pos = 0
    for name, lo, hi in circuit.stages:
        segments += [(None, pos, lo), (name, lo, hi)]
        pos = hi
    segments.append((None, pos, len(ops)))
    for name, lo, hi in segments:
        for state in states:
            state[3] = [0] * total
            state[4] = [0] * total
        s_count = s_units = 0
        for i in range(lo, hi):
            op = ops[i]
            wc, wd, units, full, ctrl = _op_cost(op)
            s_count += wc
            s_units += units
            for ry, last_full, busy, s_full, s_busy in states:
                start = s_start = 0
                for q in full:
                    b = busy[q]
                    if b > start:
                        start = b
                    b = s_busy[q]
                    if b > s_start:
                        s_start = b
                for q in ctrl:
                    b = last_full[q]
                    if b > start:
                        start = b
                    b = s_full[q]
                    if b > s_start:
                        s_start = b
                w = wd + units * ry if units else wd
                finish = start + w
                s_finish = s_start + w
                for q in full:
                    last_full[q] = busy[q] = finish
                    s_full[q] = s_busy[q] = s_finish
                for q in ctrl:
                    if finish > busy[q]:
                        busy[q] = finish
                    if s_finish > s_busy[q]:
                        s_busy[q] = s_finish
        t_count += s_count
        ry_units += s_units
        stage_counts.append((name, s_count, s_units,
                             [max(state[4], default=0) for state in states]))
    reports = []
    for v, (ry, _, busy, _, _) in enumerate(states):
        breakdown = {}
        for name, s_count, s_units, s_depths in stage_counts:
            if name is not None:
                tc0, td0 = breakdown.get(name, (0, 0))
                breakdown[name] = (tc0 + s_count + s_units * ry,
                                   td0 + s_depths[v])
        reports.append(ResourceReport(
            qubits=total, t_count=t_count + ry_units * ry,
            t_depth=max(busy, default=0), breakdown=breakdown))
    return reports


# ---------------------------------------------------------------------------
# Line-oriented circuit text format
# ---------------------------------------------------------------------------

def _fmt_controls(controls):
    return ",".join(("+" if pos else "-") + str(q) for q, pos in controls)


def _fmt_gate(g):
    parts = [g.kind.value]
    if g.controls:
        parts.append("c=" + _fmt_controls(g.controls))
    parts.append("t=" + ",".join(str(q) for q in g.targets))
    if g.angle is not None:
        parts.append("a=%.12g" % g.angle)
    return " ".join(parts)


def _parse_controls(text):
    out = []
    for tok in text.split(","):
        if tok[0] not in "+-":
            raise CircuitError(f"bad control token {tok!r}")
        out.append((int(tok[1:]), tok[0] == "+"))
    return tuple(out)


_GATE_KINDS = {k.value: k for k in GateKind}


def _parse_gate(fields):
    kind = _GATE_KINDS[fields[0]]
    controls = ()
    targets = ()
    angle = None
    for tok in fields[1:]:
        key, _, val = tok.partition("=")
        if key == "c":
            controls = _parse_controls(val)
        elif key == "t":
            targets = tuple(map(int, val.split(",")))
        elif key == "a":
            angle = float(val)
        else:
            raise CircuitError(f"unknown gate field {key!r}")
    return Gate(kind, targets, controls, angle)


def _memo_text(memo, g, fmt):
    """``fmt(g)``, computed once per distinct gate in ``memo``."""
    key = (g.kind, g.targets, g.controls, g.angle)
    text = memo.get(key)
    if text is None:
        text = fmt(g)
        if g.angle != 0:    # 0.0 and -0.0 are one key but print differently
            memo[key] = text
    return text


def _fmt_gate_line(g):
    return "g " + _fmt_gate(g)


def _fmt_chunk(g):
    return _fmt_gate(g).replace(" ", ";")


def _fmt_qubits(qubits):
    return ",".join(map(str, qubits)) or "-"


def _parse_qubits(text):
    return () if text == "-" else tuple(map(int, text.split(",")))


def write_circuit_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.total_qubits}"]
    for reg in circuit.registers:
        lines.append(f"reg {reg.name} {reg.offset} {reg.size}")
    for name, lo, hi in circuit.stages:
        lines.append(f"stage {name} {lo} {hi}")
    gate_lines = {}
    chunks = {}
    for op in circuit.ops:
        if isinstance(op, Gate):
            lines.append(_memo_text(gate_lines, op, _fmt_gate_line))
        else:
            params = ",".join(f"{k}:{v}" for k, v in sorted(op.params.items()))
            body = "|".join(_memo_text(chunks, g, _fmt_chunk)
                            for g in op.expansion)
            lines.append(
                f"m {op.kind.value} tc={op.t_count} td={op.t_depth} "
                f"fq={_fmt_qubits(op.full)} cq={_fmt_qubits(op.ctrl)} "
                f"p={params or '-'} ops={body}"
            )
    return "\n".join(lines) + "\n"


_MACRO_FIELDS = frozenset(("tc", "td", "fq", "cq", "p", "ops"))


def _parse_macro(fields, chunks):
    """A macro line's op.  Its declared roles must cover its expansion, with
    a gate's qubits split as ``_op_cost`` splits them: each target (a CZ's
    are only read) lies in ``fq``, and each other qubit in ``fq`` or ``cq``."""
    kind = MacroKind(fields[0])
    attrs = dict(tok.split("=", 1) for tok in fields[1:])
    params = {}
    if attrs.get("p", "-") != "-":
        for item in attrs["p"].split(","):
            k, v = item.split(":")
            params[k] = int(v)
    expansion = []
    for chunk in attrs["ops"].split("|"):
        if chunk:
            g = chunks.get(chunk)
            if g is None:
                g = chunks[chunk] = _parse_gate(chunk.split(";"))
            expansion.append(g)
    unknown = sorted(attrs.keys() - _MACRO_FIELDS)
    if unknown:
        raise CircuitError(f"unknown macro field {unknown[0]!r}")
    macro = Macro(kind, params, stored_gates, (tuple(expansion),),
                  int(attrs["tc"]), int(attrs["td"]),
                  _parse_qubits(attrs["fq"]), _parse_qubits(attrs["cq"]))
    changed, read = set(), set()
    for g in expansion:
        (read if g.kind is GateKind.CZ else changed).update(g.targets)
        for q, _ in g.controls:
            read.add(q)
    outside = changed.difference(macro.full)
    if outside:
        raise CircuitError(f"{kind.value} macro changes qubit {min(outside)} "
                           "outside fq")
    outside = read.difference(macro.full, macro.ctrl)
    if outside:
        raise CircuitError(f"{kind.value} macro uses qubit {min(outside)} "
                           "outside fq and cq")
    return macro


def parse_circuit_text(text: str) -> Circuit:
    """Parse ``write_circuit_text`` output.

    Each distinct op line is parsed and checked once, and equal lines share
    one op object (ops are never mutated).
    """
    total = None
    registers = []
    stages = []
    ops = []
    seen = {}       # op line -> op
    chunks = {}     # macro expansion chunk -> Gate
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op = seen.get(line)
        if op is None:
            head, _, rest = line.partition(" ")
            try:
                if head == "g":
                    op = seen[line] = _parse_gate(rest.split())
                elif head == "m":
                    op = seen[line] = _parse_macro(rest.split(), chunks)
                elif head == "qubits":
                    total = int(rest)
                    continue
                elif head == "reg":
                    name, offset, size = rest.split()
                    registers.append(QubitRegister(name, int(offset),
                                                   int(size)))
                    continue
                elif head == "stage":
                    name, lo, hi = rest.split()
                    stages.append((name, int(lo), int(hi)))
                    continue
                else:
                    raise CircuitError(f"unparseable line: {line!r}")
            except (ValueError, KeyError, IndexError) as exc:
                raise CircuitError(f"unparseable line: {line!r}") from exc
        ops.append(op)
    if total is None:
        raise CircuitError("missing qubits header")
    circuit = Circuit(registers, ops, total, stages)
    for op in seen.values():
        _check_op(op, total)
    return circuit
