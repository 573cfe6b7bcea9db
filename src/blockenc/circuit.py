"""Gate-level IR, qubit registers, and T-resource accounting.

A circuit is an ordered list of gates, macros, controlled-swap layers,
LOADF swap networks, controlled-rotation blocks and layers of one
single-qubit Clifford over named, disjoint qubit registers.  Resource
accounting follows the fault-tolerant cost model: T/T`/G/G` gates cost one
T each, Clifford gates (including fanout-CNOT of any arity) are free and
contribute no depth, rotations cost a configurable synthesis T-count,
macros carry declared costs, a swap layer, a rotation block or a Clifford
layer costs what its gates cost, and a swap network what its
``parallel_cswap_clean`` columns cost.

T-depth is the longest path in the qubit-dependency DAG, where consecutive
uses of a qubit chain an edge unless both uses are pure controls (diagonal in
the computational basis), which commute and may share a layer.  Every op,
gate or not, counts itself (``t_count``, ``ry_units`` and a one-step
``schedule`` over every depth frontier), so the counter treats all ops
alike.

Every op that is not a gate is a ``Compound``: one class per kind holds
its fields, checks, forward gates, text fields and schedule, and the base
class gives every kind one adjoint, which shares the op's field objects.
``Circuit`` runs those checks, built or parsed, once per distinct gate and
once per shared field set (``key``), so an op and its adjoint are checked
once.

The circuit text (``write_circuit_text``, ``parse_circuit_text``) has one
line per op: a gate, a macro by its factory's arguments, or a swap layer, a
swap network, a rotation block or a Clifford layer by its fields; stage
bounds count ops.  The writer formats each shared field set once, and the
parser parses a compound line once with its twin, the same line with the
other ``inv``.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np


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
    SWAP = "SWAP"
    TOFFOLI = "TOFFOLI"
    MCX = "MCX"
    RY = "RY"


class MacroKind(str, Enum):
    UNARY_SELECT = "UNARY_SELECT"
    UNARY_STEP = "UNARY_STEP"
    PARALLEL_CSWAP_CLEAN = "PARALLEL_CSWAP_CLEAN"


# Kinds whose targets count as one unit of T cost.
_T_WEIGHT_ONE = frozenset((GateKind.T, GateKind.TDG, GateKind.G, GateKind.GDG))
# Per gate kind: (T weight, R_y units); an RY is one synthesis unit.
_GATE_WEIGHTS = {k: (int(k in _T_WEIGHT_ONE), int(k is GateKind.RY))
                 for k in GateKind}

# The flip kinds, the only kinds that take controls (MCX takes one or more).
_EXPECTED_CONTROLS = {
    GateKind.CNOT: 1,
    GateKind.FANOUT_CNOT: 1,
    GateKind.TOFFOLI: 2,
}
_EXPECTED_TARGETS = {
    GateKind.SWAP: 2,
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
    open-circle control.  Angles are radians and only valid for RY.
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
        if (self.angle is None) == (kind is GateKind.RY):
            raise CircuitError(f"angle mismatch for {kind.value}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise CircuitError("RY angles must be finite")

    def qubits(self):
        return self.targets + tuple(q for q, _ in self.controls)

    @property
    def t_count(self):
        return _GATE_WEIGHTS[self.kind][0]

    @property
    def ry_units(self):
        return _GATE_WEIGHTS[self.kind][1]

    def schedule(self, frontiers):
        """A full use of the targets that reads the controls.  A T-weight
        gate takes one T-layer, an RY R_y of them, any other none."""
        w, units = _GATE_WEIGHTS[self.kind]
        _schedule_use(frontiers, self.targets, [q for q, _ in self.controls],
                      w, units)

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
            and self.angle == other.angle
        )

    def __repr__(self):
        extra = f", angle={self.angle:.6g}" if self.angle is not None else ""
        return f"Gate({self.kind.value}, t={self.targets}, c={self.controls}{extra})"


def adjoint_ops(ops):
    """The adjoint of an op sequence: each op inverted, in reverse order."""
    return [op.adjoint() for op in reversed(ops)]


def _schedule_use(frontiers, full, ctrl, depth, units):
    """Advance each ``(ry, last_full, busy)`` frontier over one use of
    ``full`` and a read of ``ctrl`` that takes ``depth`` T-layers plus
    ``units`` R_y of them: it starts once every full qubit's ``busy`` and
    every read qubit's ``last_full`` has passed."""
    for ry, last_full, busy in frontiers:
        start = 0
        for q in full:
            b = busy[q]
            if b > start:
                start = b
        for q in ctrl:
            b = last_full[q]
            if b > start:
                start = b
        finish = start + depth + units * ry if units else start + depth
        for q in full:
            last_full[q] = busy[q] = finish
        for q in ctrl:
            if finish > busy[q]:
                busy[q] = finish


class Compound:
    """An op made of gates: a macro, a swap layer, a swap network, a
    rotation block or a Clifford layer.

    A subclass keeps its fields in ``__slots__`` and defines ``gates()``,
    its forward gate list, and ``fields()``, its text line up to ``inv``.
    ``inverted`` marks the adjoint: ``adjoint()`` copies every slot and
    flips it, so an op and its adjoint share their field objects, and
    ``expansion`` is the forward gates, inverted when ``inverted`` is set.
    ``key()`` names that shared field set.  Only the simulator asks for the
    expansion.  Every kind but a macro also checks its fields
    (``validate``).  Like a gate, every kind counts itself: it costs
    ``t_count`` plus ``ry_units`` R_y units, and ``schedule(frontiers)``
    advances each ``(ry, last_full, busy)`` depth frontier over the op in
    one step, from the closed form of its gates' schedule (a macro's from
    its declared T-depth and qubit roles).
    """

    __slots__ = ("inverted",)
    ry_units = 0

    @property
    def expansion(self):
        gates = self.gates()
        return tuple(adjoint_ops(gates) if self.inverted else gates)

    def adjoint(self):
        """The inverse op: every slot shared, ``inverted`` flipped."""
        cls = type(self)
        inverse = cls.__new__(cls)
        for name in cls.__slots__:
            setattr(inverse, name, getattr(self, name))
        inverse.inverted = not self.inverted
        return inverse

    def key(self):
        """``type(self)`` and the ``id`` of each field: equal for an op and
        its adjoint, and naming the fields only while an op holds them, so
        a memo keyed by it lives no longer than one call over a circuit."""
        cls = type(self)
        return (cls, *[id(getattr(self, name)) for name in cls.__slots__])

    def validate(self):
        """Nothing: a macro's factory does its checks."""


class Macro(Compound):
    """Opaque costed construction with an exact unitary expansion.

    The declared cost follows the measurement-assisted accounting (e.g. the
    T-depth-1 Toffoli); the expansion is the measurement-free unitary used by
    the simulator.  Every qubit a macro uses, scratch qubits included, is a
    qubit of one of the circuit's registers.

    A macro keeps its recipe, not its gates: ``recipe(*args)`` returns the
    forward expansion, a module-level function so that no macro holds a
    closure.  Counting reads only the declared cost and qubit roles, sorted
    tuples of the qubits the macro may change (``full``) and of those it
    only reads (``ctrl``).  ``scratch`` holds the register qubits
    that the cost model uses and the expansion leaves alone (the
    measurement-assisted Toffolis' scratch): they are checked as the
    macro's qubits but not counted.  The text holds a macro's kind, its
    factory's ``args`` and ``inv``.
    """

    __slots__ = ("kind", "recipe", "args", "t_count", "t_depth", "full",
                 "ctrl", "scratch")

    def __init__(self, kind, recipe, args, t_count, t_depth, full, ctrl,
                 scratch=()):
        self.kind = kind
        self.recipe = recipe
        self.args = args
        self.inverted = False
        self.t_count = int(t_count)
        self.t_depth = int(t_depth)
        self.full = tuple(sorted(full))
        self.ctrl = tuple(sorted(ctrl))
        self.scratch = tuple(scratch)
        if not self.full and not self.ctrl:
            raise CircuitError(f"{kind.value} macro declares no qubit")

    def gates(self):
        return self.recipe(*self.args)

    def qubits(self):
        return self.full + self.ctrl + self.scratch

    def schedule(self, frontiers):
        """One use of ``full`` that reads ``ctrl``, ``t_depth`` long."""
        _schedule_use(frontiers, self.full, self.ctrl, self.t_depth, 0)

    def fields(self):
        """The kind and its factory's arguments: the parser calls the
        factory again, which fixes the cost, the roles and the recipe."""
        kind = self.kind
        if kind is MacroKind.PARALLEL_CSWAP_CLEAN:
            control, pairs, pool = self.args
            fields = (f"c={control} p={_fmt_pairs(pairs)} "
                      f"pool={_fmt_qubits(pool)}")
        elif kind is MacroKind.UNARY_STEP:
            select, lo, hi, flag = self.args
            fields = f"s={_fmt_qubits(select)} from={lo} to={hi} flag={flag}"
        else:
            select, rows, slots, flag = self.args
            packed = np.packbits(np.asarray(rows, dtype=np.uint8), axis=1)
            fields = (f"s={_fmt_qubits(select)} slots={_fmt_qubits(slots)} "
                      f"flag={'-' if flag is None else flag} rows="
                      + ",".join(row.tobytes().hex() for row in packed))
        return f"m {kind.value} {fields}"

    def __eq__(self, other):
        return (
            isinstance(other, Macro)
            and self.kind == other.kind
            and (self.full, self.ctrl, self.scratch)
            == (other.full, other.ctrl, other.scratch)
            and self.expansion == other.expansion
            and (self.t_count, self.t_depth) == (other.t_count, other.t_depth)
        )

    def __repr__(self):
        return (f"Macro({self.kind.value}, tc={self.t_count}, td={self.t_depth}, "
                f"ng={len(self.expansion)})")


class SwapLayer(Compound):
    """A layer of phase-incorrect controlled swaps: one polarized control
    (``controls`` holds it) and disjoint qubit ``pairs``; T-count 4 per pair.

    The default form is one whole controlled-swap fragment per pair; the
    shared control enters each fragment only as a control (architecturally a
    single fanout-CNOT), so the fragments occupy a common depth-4 layer
    while the sparse-simulation support stays bounded (each G chain closes
    back to a permutation before the next pair branches).  ``layered=True``
    is the layered form - per-layer G walls around one explicit fanout-CNOT -
    which pins the whole column to a common start in the dependency DAG; the
    simulation support then grows with 2^pairs mid-column, so it is reserved
    for narrow columns.  The swaps permute basis states correctly but pick up
    -1 phases on some inputs, so they are only used where the phase lands in
    garbage or cancels against the adjoint leg.
    """

    __slots__ = ("controls", "pairs", "layered")

    def __init__(self, controls, pairs, layered=False):
        self.controls = tuple(controls)
        self.pairs = tuple(pairs)
        self.layered = layered
        self.inverted = False

    def validate(self):
        if len(self.controls) != 1:
            raise CircuitError("a swap layer takes exactly one control")
        if set(map(len, self.pairs)) != {2}:
            raise CircuitError("a swap layer takes one or more qubit pairs")

    @property
    def t_count(self):
        return 4 * len(self.pairs)

    def gates(self):
        """Pair (a, b) of control c is CNOT b->a, G-dagger b, CNOT a->b,
        G-dagger b, CNOT c->b, G b, CNOT a->b, G b, CNOT b->a; the default
        form runs those nine steps pair by pair, the layered form step by
        step across all pairs, with one fanout from c."""
        pairs = self.pairs
        ab = [Gate(GateKind.CNOT, (a,), ((b, True),)) for a, b in pairs]
        ba = [Gate(GateKind.CNOT, (b,), ((a, True),)) for a, b in pairs]
        gdg = [Gate(GateKind.GDG, (b,)) for _, b in pairs]
        g = [Gate(GateKind.G, (b,)) for _, b in pairs]
        if self.layered:
            fanout = Gate(GateKind.FANOUT_CNOT, tuple(b for _, b in pairs),
                          self.controls)
            return ab + gdg + ba + gdg + [fanout] + g + ba + g + ab
        cb = [Gate(GateKind.CNOT, (b,), self.controls) for _, b in pairs]
        steps = (ab, gdg, ba, gdg, cb, g, ba, g, ab)
        return [step[i] for i in range(len(pairs)) for step in steps]

    def qubits(self):
        return (tuple(chain.from_iterable(self.pairs))
                + tuple(q for q, _ in self.controls))

    def schedule(self, frontiers):
        """A pair (a, b) reads the control c between two T-layers on b
        before and two after: at X = max(max(busy[a], busy[b]) + 2,
        last_full[c]), leaving a and b at X + 2.  A ``layered`` layer reads
        c once for all its pairs, so its one X takes the first term's
        maximum over every pair qubit, and every pair qubit ends at X + 2.
        Inverted, the gates are the same up to G and G-dagger, so the
        schedule is too."""
        c = self.controls[0][0]
        pairs = self.pairs
        if self.layered:
            qubits = tuple(chain.from_iterable(pairs))
            for _, last_full, busy in frontiers:
                x = max(max(map(busy.__getitem__, qubits)) + 2, last_full[c])
                done = x + 2
                for q in qubits:
                    last_full[q] = busy[q] = done
                if x > busy[c]:
                    busy[c] = x
            return
        for _, last_full, busy in frontiers:
            ready = last_full[c]
            top = busy[c]
            for a, b in pairs:
                ba, bb = busy[a], busy[b]
                x = (ba if ba > bb else bb) + 2
                if ready > x:
                    x = ready
                last_full[a] = busy[a] = last_full[b] = busy[b] = x + 2
                if x > top:
                    top = x
            busy[c] = top

    def fields(self):
        return (f"l c={_fmt_controls(self.controls)} "
                f"p={_fmt_pairs(self.pairs)} layered={int(self.layered)}")


class RotationBlock(Compound):
    """A block of controlled rotations held as columns: ``columns`` is
    (control column[, second control column], target column), each a
    tuple of equal length, so slot k is (``columns[0][k]``[,
    ``columns[1][k]``], ``columns[-1][k]``) and rotates by ``thetas[k]``.
    Slots share no control, and no control is a target; a target may
    repeat (the fixed-precision ladder rotates one data qubit under each
    angle bit), and its slots run in order, reversed in the adjoint.  When
    ``fanout`` is a qubit, a fanout-CNOT from it onto the first control
    column comes before the rotations and again after them.

    Each slot's gates are ``decomp.controlled_ry_gates``: a flip,
    RY(-theta/2), the flip, RY(theta/2).  A one-control flip is a CNOT; a
    two-control flip is counted as a measurement-assisted Toffoli (T-count
    4, T-depth 1), and its expansion is a plain Toffoli.
    """

    __slots__ = ("columns", "thetas", "fanout")

    def __init__(self, columns, thetas, fanout=None):
        self.columns = tuple(map(tuple, columns))
        self.thetas = tuple(map(float, thetas))
        self.fanout = fanout
        self.inverted = False

    def validate(self):
        columns = self.columns
        if (len(columns) not in (2, 3) or not columns[0]
                or len(set(map(len, columns))) != 1):
            raise CircuitError("a rotation block takes one or more slots "
                               "as a control column, or two, and a target "
                               "column, all of one length")
        if len(self.thetas) != len(columns[0]):
            raise CircuitError("a rotation block takes one angle per slot")
        if not all(map(math.isfinite, self.thetas)):
            raise CircuitError("rotation block angles must be finite")

    @property
    def t_count(self):
        """Two measurement-assisted Toffolis per two-control slot."""
        return 8 * len(self.columns[0]) if len(self.columns) == 3 else 0

    @property
    def ry_units(self):
        return 2 * len(self.columns[0])

    def gates(self):
        from .decomp import controlled_ry_gates
        gates = []
        for *controls, target, theta in zip(*self.columns, self.thetas):
            gates += controlled_ry_gates(theta, controls, target)
        fan = self.fan()
        return gates if fan is None else [fan, *gates, fan]

    def fan(self):
        """The fanout-CNOT from ``fanout`` onto the first control column,
        or None without a fanout."""
        if self.fanout is None:
            return None
        return Gate(GateKind.FANOUT_CNOT, self.columns[0],
                    ((self.fanout, True),))

    def qubits(self):
        """The control columns, each target once, then the fanout."""
        *controls, targets = self.columns
        return tuple(chain(*controls, dict.fromkeys(targets),
                           () if self.fanout is None else (self.fanout,)))

    def schedule(self, frontiers):
        """A slot (controls C, target t) whose flips take T-depth d (1 for
        two controls, 0 for one) starts at X = max(busy[t], last_full[C]),
        or inverted, where a rotation comes first, at X = max(busy[t] + R,
        last_full[C]); its controls are read until X + 2d + R, and t is done
        at X + 2d + 2R (X + 2d + R inverted).  Slots on one target chain
        through its ``busy``, so the adjoint walks them in reverse, as its
        expansion runs them."""
        columns = self.columns
        if self.inverted:
            columns = [column[::-1] for column in columns]
        for ry, last_full, busy in frontiers:
            pre, post = (ry, 0) if self.inverted else (0, ry)
            if self.fanout is not None:
                self._schedule_fanout(last_full, busy)
            if len(columns) == 3:
                step = 2 + ry
                for c1, c2, t in zip(*columns):
                    x = busy[t] + pre
                    if last_full[c1] > x:
                        x = last_full[c1]
                    if last_full[c2] > x:
                        x = last_full[c2]
                    x += step
                    last_full[t] = busy[t] = x + post
                    if x > busy[c1]:
                        busy[c1] = x
                    if x > busy[c2]:
                        busy[c2] = x
            else:
                for c, t in zip(*columns):
                    x = busy[t] + pre
                    if last_full[c] > x:
                        x = last_full[c]
                    x += ry
                    last_full[t] = busy[t] = x + post
                    if x > busy[c]:
                        busy[c] = x
            if self.fanout is not None:
                self._schedule_fanout(last_full, busy)

    def _schedule_fanout(self, last_full, busy):
        """The fanout: a weight-0 full use of the first control column that
        reads the fanout qubit."""
        f = self.fanout
        firsts = self.columns[0]
        x = last_full[f]
        for q in firsts:
            if busy[q] > x:
                x = busy[q]
        for q in firsts:
            last_full[q] = busy[q] = x
        if x > busy[f]:
            busy[f] = x

    def fields(self):
        """Slot k as ``columns[0][k]:...:columns[-1][k]``; ``repr`` writes
        each angle exactly."""
        slot = ":".join(("{}",) * len(self.columns))
        fanout = "-" if self.fanout is None else self.fanout
        return (f"r q={','.join(map(slot.format, *self.columns))} "
                f"a={','.join(map(repr, self.thetas))} fan={fanout}")


_LAYER_KINDS = frozenset((GateKind.X, GateKind.Z, GateKind.H))


class CliffordLayer(Compound):
    """One single-qubit Clifford ``kind`` (X, Z or H) on each of distinct
    ``targets``: a data write, a Z imprint or the bus's H wall.  It is
    free, and each target is one weight-0 full use."""

    __slots__ = ("kind", "targets")
    t_count = 0

    def __init__(self, kind, targets):
        self.kind = kind
        self.targets = tuple(targets)
        self.inverted = False

    def validate(self):
        if self.kind not in _LAYER_KINDS:
            raise CircuitError("a Clifford layer is X, Z or H, not "
                               f"{self.kind.value}")
        if not self.targets:
            raise CircuitError("a Clifford layer takes one or more targets")

    def gates(self):
        return [Gate(self.kind, (q,)) for q in self.targets]

    def qubits(self):
        return self.targets

    def schedule(self, frontiers):
        for _, last_full, busy in frontiers:
            for q in self.targets:
                last_full[q] = busy[q]

    def fields(self):
        return f"c k={self.kind.value} t={_fmt_qubits(self.targets)}"


def clifford_layer_ops(kind, targets):
    """``[CliffordLayer(kind, targets)]``, or no op for no target."""
    targets = tuple(targets)
    return [CliffordLayer(kind, targets)] if targets else []


def stride_pairs(slots, k):
    """The slot pairs (c, c + 2^k), c a multiple of 2^(k+1), of the swap
    column that halves the live slots at stride 2^k."""
    return zip(slots[::2 << k], slots[1 << k::2 << k])


class SwapNetwork(Compound):
    """The swap network W of one LOADF block, bringing slot j to slot 0:
    column k (low stride first) swaps the ``stride_pairs(slots, k)`` under
    ``controls[k]`` as one ``decomp.parallel_cswap_clean`` over the first
    2^(n-k) qubits of ``pool`` (n columns, 2^n slots, a pool of 2^n).  Its
    adjoint runs the columns reversed, each inverted.

    Column k is a T-depth-1 full use of the slots at multiples of 2^k and
    of ``pool[:2^(n-k-1)]`` that reads its control; these nest, so the
    network schedules itself from ``groups``, and the T-count is
    4(2^n - 1).
    """

    __slots__ = ("controls", "slots", "pool", "groups")

    def __init__(self, controls, slots, pool):
        self.controls = tuple(controls)
        self.slots = tuple(slots)
        self.pool = tuple(pool)
        self.inverted = False
        # Per column k: its control and the full qubits no later column
        # uses (the slots at odd multiples of 2^k and pool[2^(n-k-2):
        # 2^(n-k-1)]; slot 0 joins the last column's).
        size = len(self.slots)
        groups = [(c, self.slots[1 << k::2 << k]
                   + self.pool[size >> (k + 2):size >> (k + 1)])
                  for k, c in enumerate(self.controls)]
        if groups:
            c, last = groups[-1]
            groups[-1] = (c, self.slots[:1] + last)
        self.groups = tuple(groups)

    def validate(self):
        n = len(self.controls)
        if not n or len(self.slots) != 1 << n:
            raise CircuitError("a swap network takes n >= 1 controls and "
                               "2^n slots")
        if len(self.pool) != len(self.slots):
            raise CircuitError("a swap network takes a pool of one qubit "
                               "per slot")

    @property
    def t_count(self):
        return 4 * (len(self.slots) - 1)

    def gates(self):
        from .decomp import _cswap_clean_gates
        gates = []
        for k, c in enumerate(self.controls):
            pairs = tuple(stride_pairs(self.slots, k))
            gates += _cswap_clean_gates(c, pairs, self.pool[:2 * len(pairs)])
        return gates

    def qubits(self):
        return self.controls + self.slots + self.pool

    def schedule(self, frontiers):
        """Column k's full qubits are groups k..n-1, so column k starts at
        X_k, the largest of last_full[c_k], the previous column's X + 1
        and, for the groups the column is the first to use, their ``busy``;
        it leaves its control read until X_k + 1.  Forward, every group
        enters column 0, and group k is done at X_k + 1; inverted, the
        columns run n-1 down to 0 and every group is done at X_0 + 1."""
        groups = self.groups
        if self.inverted:
            for _, last_full, busy in frontiers:
                x = -1
                for c, qubits in reversed(groups):
                    x += 1
                    if last_full[c] > x:
                        x = last_full[c]
                    for q in qubits:
                        if busy[q] > x:
                            x = busy[q]
                    if x >= busy[c]:
                        busy[c] = x + 1
                x += 1
                for _, qubits in groups:
                    for q in qubits:
                        last_full[q] = busy[q] = x
            return
        for _, last_full, busy in frontiers:
            x = 0
            for _, qubits in groups:
                for q in qubits:
                    if busy[q] > x:
                        x = busy[q]
            x -= 1
            for c, qubits in groups:
                x += 1
                if last_full[c] > x:
                    x = last_full[c]
                for q in qubits:
                    last_full[q] = busy[q] = x + 1
                if x >= busy[c]:
                    busy[c] = x + 1

    def fields(self):
        return (f"w c={_fmt_qubits(self.controls)} "
                f"s={_fmt_qubits(self.slots)} pool={_fmt_qubits(self.pool)}")


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
    """Immutable ordered op sequence over a fixed register layout.

    The registers must tile the qubits and the stages be ordered, disjoint
    op ranges; then every distinct op passes ``_check_op`` once, a gate
    by its value and any other op by its ``Compound.key`` (an op and its
    adjoint share one check; generators and the parser share equal ops),
    so a counted circuit holds only checked ops.
    """

    __slots__ = ("registers", "ops", "total_qubits", "stages")

    def __init__(self, registers, ops, total_qubits, stages=None):
        self.registers = tuple(registers)
        self.ops = tuple(ops)
        self.total_qubits = int(total_qubits)
        self.stages = tuple(stages) if stages is not None else ()
        _check_tiling(self.registers, self.total_qubits)
        _check_stages(self.stages, len(self.ops))
        distinct = {(op.kind, op.targets, op.controls, op.angle)
                    if type(op) is Gate else op.key(): op for op in self.ops}
        for op in distinct.values():
            _check_op(op, self.total_qubits)

    def register(self, name):
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(name)


def _check_tiling(registers, total):
    last = 0
    for reg in sorted(registers, key=lambda r: r.offset):
        if reg.offset != last:
            raise CircuitError(f"registers must tile: gap before {reg.name}")
        last = reg.offset + reg.size
    if registers and last != total:
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
    """An op's own checks, then its qubits: distinct and in range.  The
    message, naming the first bad qubit, is built only on failure."""
    op.validate()
    qubits = op.qubits()
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"op qubits {_fmt_qubits(qubits)} must be distinct")
    if qubits and (min(qubits) < 0 or max(qubits) >= total):
        q = next(q for q in qubits if not 0 <= q < total)
        raise CircuitError(f"qubit {q} out of range [0, {total})")


class CircuitBuilder:
    """Mutable builder used by the generators; produces an immutable Circuit,
    which checks every op."""

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
        """The qubits of a new register of ``size`` qubits; none at size 0."""
        return self.allocate(name, size).qubits if size > 0 else ()

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
        self._ops.append(op)

    def extend(self, ops):
        self._ops.extend(ops)

    def gate(self, kind, targets, controls=(), angle=None):
        if isinstance(targets, int):
            targets = (targets,)
        g = Gate(kind, targets, controls, angle)
        self.add(g)
        return g

    def build(self):
        self.end_stage()
        return Circuit(self._registers, self._ops, self._total, self._stages)


def count_resources(circuit: Circuit, ry_cost: int = 0) -> ResourceReport:
    """The ``count_resources_at`` report for the single value ``ry_cost``."""
    return count_resources_at(circuit, (ry_cost,))[0]


def _count_ops(ops, frontiers):
    """Schedule each op on every frontier; return their T-count and R_y
    units."""
    t_count = ry_units = 0
    for op in ops:
        t_count += op.t_count
        ry_units += op.ry_units
        op.schedule(frontiers)
    return t_count, ry_units


def count_resources_at(circuit: Circuit, ry_costs) -> list:
    """Count qubits, T-count, scheduled T-depth and the per-stage breakdown,
    one ``ResourceReport`` per value in ``ry_costs``.

    An R_y value, a non-negative integer, is the Clifford+T synthesis
    T-count charged per RY gate (rotations are simulated exactly but costed
    at this rate).  Qubits are the register total: every scratch qubit is a
    register qubit.  The breakdown gives each stage's (T-count, T-depth),
    counted as if the stage's ops were a circuit of their own and summed
    over stages that share a name; it is empty when the circuit has no
    stages.

    Every op counts itself.  T-count is affine in R_y: each op adds its
    ``t_count`` and ``ry_units``, summed once for all values.  T-depth is a
    longest path, whose critical path may change with R_y, so each value
    keeps a depth frontier ``(ry, last_full, busy)`` of its own: per qubit,
    the finish of the last full use and the latest finish of any use.  A
    full use waits for ``busy``, a control-only use only for ``last_full``,
    and a frontier's T-depth is its largest ``busy``.  One pass calls each
    op's ``schedule`` once, on the circuit's frontiers and, inside a
    stage, on fresh stage-local ones too.
    """
    for ry in ry_costs:
        if not isinstance(ry, numbers.Integral) or ry < 0:
            raise ValueError(f"R_y must be a non-negative integer, not {ry!r}")
    ops = circuit.ops
    total = circuit.total_qubits
    frontiers = [(ry, [0] * total, [0] * total) for ry in ry_costs]
    breakdowns = [{} for _ in frontiers]
    t_count = ry_units = pos = 0
    for name, lo, hi in circuit.stages:
        count, units = _count_ops(ops[pos:lo], frontiers)
        stage = [(ry, [0] * total, [0] * total) for ry in ry_costs]
        s_count, s_units = _count_ops(ops[lo:hi], frontiers + stage)
        t_count += count + s_count
        ry_units += units + s_units
        for breakdown, (ry, _, busy) in zip(breakdowns, stage):
            tc, td = breakdown.get(name, (0, 0))
            breakdown[name] = (tc + s_count + s_units * ry,
                               td + max(busy, default=0))
        pos = hi
    count, units = _count_ops(ops[pos:], frontiers)
    t_count += count
    ry_units += units
    return [ResourceReport(qubits=total, t_count=t_count + ry_units * ry,
                           t_depth=max(busy, default=0), breakdown=breakdown)
            for (ry, _, busy), breakdown in zip(frontiers, breakdowns)]


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
        parts.append("a=" + repr(float(g.angle)))
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
            if repr(angle) != val:
                raise ValueError("angle not written as repr writes it")
        else:
            raise CircuitError(f"unknown gate field {key!r}")
    return Gate(kind, targets, controls, angle)


def _gate_line(memo, g):
    """A gate's line, formatted once per distinct gate in ``memo``."""
    key = (g.kind, g.targets, g.controls, g.angle)
    text = memo.get(key)
    if text is None:
        text = "g " + _fmt_gate(g)
        if g.angle != 0:    # 0.0 and -0.0 are one key but print differently
            memo[key] = text
    return text


def _fmt_qubits(qubits):
    return ",".join(map(str, qubits)) or "-"


def _parse_qubits(text):
    return () if text == "-" else tuple(map(int, text.split(",")))


def _fmt_pairs(pairs):
    return ",".join(f"{a}:{b}" for a, b in pairs)


def _parse_pairs(text):
    return tuple((int(a), int(b))
                 for a, b in (item.split(":") for item in text.split(",")))


def write_circuit_text(circuit: Circuit) -> str:
    """The circuit's text: one line per op, and stage bounds in ops.  A
    compound op's ``fields()`` is formatted once per ``key``, and each line
    appends its own ``inv``."""
    lines = [f"qubits {circuit.total_qubits}"]
    for reg in circuit.registers:
        lines.append(f"reg {reg.name} {reg.offset} {reg.size}")
    for name, lo, hi in circuit.stages:
        lines.append(f"stage {name} {lo} {hi}")
    gate_lines = {}
    bodies = {}     # Compound.key -> fields()
    for op in circuit.ops:
        if isinstance(op, Gate):
            lines.append(_gate_line(gate_lines, op))
            continue
        key = op.key()
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = op.fields()
        lines.append(f"{body} inv={int(op.inverted)}")
    return "\n".join(lines) + "\n"


_LAYER_FIELDS = frozenset(("c", "p", "layered", "inv"))
_NETWORK_FIELDS = frozenset(("c", "s", "pool", "inv"))
_BLOCK_FIELDS = frozenset(("q", "a", "fan", "inv"))
_CLIFFORD_FIELDS = frozenset(("k", "t", "inv"))
_FLAGS = {"0": False, "1": True}
# A compound line's last field, and the same field in its twin.
_TWIN_INV = {" inv=0": " inv=1", " inv=1": " inv=0"}


def _fields(fields, known, what):
    """A line's ``key=value`` fields; a key outside ``known`` raises."""
    attrs = dict(tok.split("=", 1) for tok in fields)
    unknown = sorted(attrs.keys() - known)
    if unknown:
        raise CircuitError(f"unknown {what} field {unknown[0]!r}")
    return attrs


def _inverted_if(attrs, op):
    """The line's op: ``op``, or its adjoint when the line has ``inv=1``."""
    return op.adjoint() if _FLAGS[attrs["inv"]] else op


def _parse_layer(fields):
    attrs = _fields(fields, _LAYER_FIELDS, "swap layer")
    return _inverted_if(attrs, SwapLayer(_parse_controls(attrs["c"]),
                                         _parse_pairs(attrs["p"]),
                                         _FLAGS[attrs["layered"]]))


def _parse_network(fields):
    attrs = _fields(fields, _NETWORK_FIELDS, "swap network")
    return _inverted_if(attrs, SwapNetwork(_parse_qubits(attrs["c"]),
                                           _parse_qubits(attrs["s"]),
                                           _parse_qubits(attrs["pool"])))


def _parse_block(fields):
    """A rotation block line; its angles must be spelled as ``repr`` writes
    them, so that the line writes back unchanged."""
    attrs = _fields(fields, _BLOCK_FIELDS, "rotation block")
    slots = attrs["q"]
    width = slots.partition(",")[0].count(":") + 1
    slot = "[^,:]+" + ":[^,:]+" * (width - 1)
    if not re.fullmatch(f"{slot}(?:,{slot})*", slots):
        raise ValueError("slots of mixed width")
    qubits = tuple(map(int, slots.replace(",", ":").split(":")))
    fanout = None if attrs["fan"] == "-" else int(attrs["fan"])
    block = RotationBlock((qubits[i::width] for i in range(width)),
                          map(float, attrs["a"].split(",")), fanout)
    if ",".join(map(repr, block.thetas)) != attrs["a"]:
        raise ValueError("angles not written as repr writes them")
    return _inverted_if(attrs, block)


def _parse_clifford(fields):
    attrs = _fields(fields, _CLIFFORD_FIELDS, "Clifford layer")
    return _inverted_if(attrs, CliffordLayer(_GATE_KINDS[attrs["k"]],
                                             _parse_qubits(attrs["t"])))


_MACRO_ARGS = {
    MacroKind.PARALLEL_CSWAP_CLEAN: frozenset(("c", "p", "pool", "inv")),
    MacroKind.UNARY_STEP: frozenset(("s", "from", "to", "flag", "inv")),
    MacroKind.UNARY_SELECT: frozenset(("s", "slots", "flag", "rows", "inv")),
}


def _parse_rows(text, width):
    """Rows of ``width`` bits, each packed by ``np.packbits`` into hex with
    zero padding bits."""
    rows = text.split(",")
    size = (width + 7) // 8
    if any(len(row) != 2 * size for row in rows):
        raise ValueError(f"each row must be {2 * size} hex digits")
    packed = np.frombuffer(bytes.fromhex("".join(rows)), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(rows), size), axis=1)
    if bits[:, width:].any():
        raise ValueError("row padding bits must be 0")
    return bits[:, :width]


def _parse_macro(fields):
    """A macro line's op, built by the kind's factory in ``decomp`` (which
    imports this module); a factory's ``ParameterError`` is a ValueError."""
    from . import decomp
    kind = MacroKind(fields[0])
    attrs = _fields(fields[1:], _MACRO_ARGS[kind], "macro")
    if kind is MacroKind.PARALLEL_CSWAP_CLEAN:
        macro = decomp.parallel_cswap_clean(
            int(attrs["c"]), _parse_pairs(attrs["p"]),
            _parse_qubits(attrs["pool"]))
    elif kind is MacroKind.UNARY_STEP:
        macro = decomp.unary_step(_parse_qubits(attrs["s"]),
                                  int(attrs["from"]), int(attrs["to"]),
                                  int(attrs["flag"]))
    else:
        slots = _parse_qubits(attrs["slots"])
        flag = None if attrs["flag"] == "-" else int(attrs["flag"])
        macro = decomp.unary_select(_parse_qubits(attrs["s"]),
                                    _parse_rows(attrs["rows"], len(slots)),
                                    slots, flag)
    return _inverted_if(attrs, macro)


# Op line parsers, by the line's first token.
_OP_PARSERS = {"g": _parse_gate, "m": _parse_macro, "l": _parse_layer,
               "w": _parse_network, "r": _parse_block, "c": _parse_clifford}


def parse_circuit_text(text: str) -> Circuit:
    """Parse ``write_circuit_text`` output: exactly one ``qubits`` header,
    with a positive count, then registers, stages and op lines.

    Each distinct op line is parsed once, and equal lines share one op
    object (ops are never mutated).  A compound line whose twin, the same
    line ending in the other ``inv``, is already parsed is that op's
    ``adjoint()``, so the two share their fields and one check.
    """
    total = None
    registers = []
    stages = []
    ops = []
    seen = {}       # op line -> op
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op = seen.get(line)
        if op is None:
            flipped = _TWIN_INV.get(line[-6:])
            if flipped is not None:
                twin = seen.get(line[:-6] + flipped)
                if twin is not None:
                    op = seen[line] = twin.adjoint()
        if op is None:
            head, _, rest = line.partition(" ")
            parse = _OP_PARSERS.get(head)
            try:
                if parse is not None:
                    op = seen[line] = parse(rest.split())
                elif head == "qubits":
                    if total is not None:
                        raise ValueError("a second qubits header")
                    total = int(rest)
                    if total < 1:
                        raise ValueError("qubits must be positive")
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
    return Circuit(registers, ops, total, stages)
