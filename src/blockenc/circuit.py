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
# Rotation kinds weighted by the synthesis cost parameter.
_ROTATIONS = frozenset((GateKind.RY, GateKind.CRY, GateKind.CCRY))

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
        if (self.angle is None) == (kind in _ROTATIONS):
            raise CircuitError(f"angle mismatch for {kind.value}")
        qubits = list(self.targets) + [q for q, _ in self.controls]
        if len(set(qubits)) != len(qubits):
            raise CircuitError("gate qubits must be distinct")

    def qubits(self):
        return self.targets + tuple(q for q, _ in self.controls)

    def adjoint(self):
        kind = _ADJOINT_KIND.get(self.kind, self.kind)
        angle = -self.angle if self.angle is not None else None
        return Gate(kind, self.targets, self.controls, angle)

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
    the simulator.  ``extra_ancillas`` counts scratch qubits that live outside
    the circuit's registers; macros backed by explicit pool registers declare
    zero.
    """

    __slots__ = ("kind", "params", "expansion", "t_count", "t_depth",
                 "extra_ancillas", "footprint", "_control_set", "_full_set")

    def __init__(self, kind, params, expansion, t_count, t_depth,
                 extra_ancillas=0, footprint=()):
        self.kind = kind
        self.params = dict(params)
        self.expansion = tuple(expansion)
        self.t_count = int(t_count)
        self.t_depth = int(t_depth)
        self.extra_ancillas = int(extra_ancillas)
        # Qubits the macro logically owns even when the classical data
        # happens to leave them untouched; keeps depth accounting
        # data-independent.
        self.footprint = tuple(footprint)
        self._control_set = None
        self._full_set = None

    def qubits(self):
        seen = set(self.footprint)
        for g in self.expansion:
            seen.update(g.qubits())
        return tuple(sorted(seen))

    def _classify(self):
        if self._control_set is not None:
            return
        full = set(self.footprint)
        ctrl = set()
        for g in self.expansion:
            if g.kind is GateKind.CZ:
                ctrl.update(g.targets)
            else:
                full.update(g.targets)
            for q, _ in g.controls:
                ctrl.add(q)
        self._full_set = frozenset(full)
        self._control_set = frozenset(ctrl - full)

    def control_qubits(self):
        self._classify()
        return self._control_set

    def full_qubits(self):
        self._classify()
        return self._full_set

    def adjoint(self):
        return Macro(self.kind, self.params, adjoint_ops(self.expansion),
                     self.t_count, self.t_depth, self.extra_ancillas,
                     self.footprint)

    def __eq__(self, other):
        return (
            isinstance(other, Macro)
            and self.kind == other.kind
            and self.params == other.params
            and self.expansion == other.expansion
            and (self.t_count, self.t_depth, self.extra_ancillas)
            == (other.t_count, other.t_depth, other.extra_ancillas)
        )

    def __repr__(self):
        return (f"Macro({self.kind.value}, tc={self.t_count}, td={self.t_depth}, "
                f"ax={self.extra_ancillas}, ng={len(self.expansion)})")


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

    def append(self, op):
        _check_op(op, self.total_qubits)
        return Circuit(self.registers, self.ops + (op,), self.total_qubits,
                       self.stages)

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


def _check_op(op, total):
    if isinstance(op, Gate):
        op.validate()
        qubits = op.qubits()
    else:
        qubits = op.qubits()
    for q in qubits:
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
        _check_op(op, self._total)
        self._ops.append(op)

    def extend(self, ops):
        for op in ops:
            self.add(op)

    def gate(self, kind, targets, controls=(), angle=None):
        if isinstance(targets, int):
            targets = (targets,)
        g = Gate(kind, targets, controls, angle)
        self.add(g)
        return g

    def build(self):
        self.end_stage()
        return Circuit(self._registers, self._ops, self._total, self._stages)


def concat(a: Circuit, b: Circuit) -> Circuit:
    """Concatenate two circuits over the same register layout."""
    if a.total_qubits != b.total_qubits or a.registers != b.registers:
        raise CircuitError("concat requires identical register layouts")
    return Circuit(a.registers, a.ops + b.ops, a.total_qubits)


def _gate_weights(op, ry_cost):
    """Return (t_count, t_depth) contribution of one op."""
    if isinstance(op, Macro):
        return op.t_count, op.t_depth
    kind = op.kind
    if kind in _T_WEIGHT_ONE:
        return 1, 1
    if kind is GateKind.RY:
        return ry_cost, ry_cost
    if kind in (GateKind.CRY, GateKind.CCRY):
        return 2 * ry_cost, 2 * ry_cost
    return 0, 0


def _op_uses(op):
    """Return (full_qubits, control_qubits) for dependency analysis."""
    if isinstance(op, Macro):
        return op.full_qubits(), op.control_qubits()
    if op.kind is GateKind.CZ:
        return (), op.targets
    return op.targets, tuple(q for q, _ in op.controls)


def count_resources(circuit: Circuit, ry_cost: int = 0,
                    with_breakdown: bool = False) -> ResourceReport:
    """Count qubits, T-count, and scheduled T-depth of a circuit.

    ``ry_cost`` is the Clifford+T synthesis T-count charged per RY gate
    (rotations are simulated exactly but costed at this rate).  Qubits are
    the declared register total plus the high-water mark of macro scratch
    ancillas whose depth intervals overlap.
    """
    t_count, t_depth, events = _count_span(circuit.ops, circuit.total_qubits, ry_cost)
    qubits = circuit.total_qubits + _high_water(events)
    breakdown = {}
    if with_breakdown and circuit.stages:
        for name, lo, hi in circuit.stages:
            tc, td, _ = _count_span(circuit.ops[lo:hi], circuit.total_qubits, ry_cost)
            if name in breakdown:
                tc0, td0 = breakdown[name]
                tc, td = tc0 + tc, td0 + td
            breakdown[name] = (tc, td)
    return ResourceReport(qubits=qubits, t_count=t_count, t_depth=t_depth,
                          breakdown=breakdown)


def _count_span(ops, total, ry_cost):
    last_full = [0] * total
    ctrl_max = [0] * total
    t_count = 0
    depth = 0
    events = []
    for op in ops:
        wc, wd = _gate_weights(op, ry_cost)
        t_count += wc
        full, ctrl = _op_uses(op)
        start = 0
        for q in full:
            lf = last_full[q]
            cm = ctrl_max[q]
            if lf > start:
                start = lf
            if cm > start:
                start = cm
        for q in ctrl:
            lf = last_full[q]
            if lf > start:
                start = lf
        finish = start + wd
        for q in full:
            last_full[q] = finish
            ctrl_max[q] = 0
        for q in ctrl:
            if finish > ctrl_max[q]:
                ctrl_max[q] = finish
        if finish > depth:
            depth = finish
        if isinstance(op, Macro) and op.extra_ancillas:
            events.append((start, max(finish, start + 1), op.extra_ancillas))
    return t_count, depth, events


def _high_water(events):
    if not events:
        return 0
    points = []
    for start, finish, k in events:
        points.append((start, k))
        points.append((finish, -k))
    points.sort(key=lambda p: (p[0], p[1]))
    level = high = 0
    for _, dk in points:
        level += dk
        if level > high:
            high = level
    return high


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


def _parse_gate(fields):
    kind = GateKind(fields[0])
    controls = ()
    targets = ()
    angle = None
    for tok in fields[1:]:
        key, _, val = tok.partition("=")
        if key == "c":
            controls = _parse_controls(val)
        elif key == "t":
            targets = tuple(int(x) for x in val.split(","))
        elif key == "a":
            angle = float(val)
        else:
            raise CircuitError(f"unknown gate field {key!r}")
    return Gate(kind, targets, controls, angle)


def write_circuit_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.total_qubits}"]
    for reg in circuit.registers:
        lines.append(f"reg {reg.name} {reg.offset} {reg.size}")
    for op in circuit.ops:
        if isinstance(op, Gate):
            lines.append("g " + _fmt_gate(op))
        else:
            params = ",".join(f"{k}:{v}" for k, v in sorted(op.params.items()))
            body = "|".join(_fmt_gate(g).replace(" ", ";") for g in op.expansion)
            fp = ",".join(str(q) for q in op.footprint) or "-"
            lines.append(
                f"m {op.kind.value} tc={op.t_count} td={op.t_depth} "
                f"ax={op.extra_ancillas} fp={fp} p={params or '-'} ops={body}"
            )
    return "\n".join(lines) + "\n"


def parse_circuit_text(text: str) -> Circuit:
    total = None
    registers = []
    ops = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "qubits":
            total = int(rest)
        elif head == "reg":
            name, offset, size = rest.split()
            registers.append(QubitRegister(name, int(offset), int(size)))
        elif head == "g":
            ops.append(_parse_gate(rest.split()))
        elif head == "m":
            fields = rest.split()
            kind = MacroKind(fields[0])
            attrs = dict(tok.split("=", 1) for tok in fields[1:])
            params = {}
            if attrs.get("p", "-") != "-":
                for item in attrs["p"].split(","):
                    k, v = item.split(":")
                    params[k] = int(v)
            expansion = [
                _parse_gate(chunk.split(";"))
                for chunk in attrs["ops"].split("|") if chunk
            ]
            footprint = ()
            if attrs.get("fp", "-") != "-":
                footprint = tuple(int(x) for x in attrs["fp"].split(","))
            ops.append(Macro(kind, params, expansion, int(attrs["tc"]),
                             int(attrs["td"]), int(attrs["ax"]), footprint))
        else:
            raise CircuitError(f"unparseable line: {line!r}")
    if total is None:
        raise CircuitError("missing qubits header")
    circuit = Circuit(registers, (), total)
    for op in ops:
        _check_op(op, total)
    return Circuit(registers, ops, total)
