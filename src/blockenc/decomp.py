"""Clifford+T gate decompositions and costed macro factories.

Each factory returns either a plain gate list, whose counted resources are its
cost, or a ``Macro`` with a declared cost, qubit roles that do not depend
on the data, and an exact unitary expansion.
These are the gadgets the generators emit.  The phase-incorrect controlled
swaps permute basis states correctly but pick up -1 phases on some inputs;
they are only used where the phase lands in garbage or cancels against the
adjoint leg.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import Gate, GateKind, Macro, MacroKind


class ParameterError(ValueError):
    pass


TWO_PI = 2.0 * math.pi


def canonical_ry_halves(theta):
    """Split a rotation angle into (half_angle, z_correction).

    The controlled rotation is emitted with half-angle ``h`` chosen near zero
    (theta reduced mod 2*pi toward the shorter arc); when the reduction winds
    an odd multiple of 2*pi, a Z on the control restores the exact
    controlled-Ry(theta) unitary.
    """
    k = 0
    reduced = math.fmod(theta, 2 * TWO_PI)
    if reduced < 0:
        reduced += 2 * TWO_PI
    if math.pi <= reduced < 3 * math.pi:
        k = 1
    elif reduced >= 3 * math.pi:
        k = 2
    return (reduced - TWO_PI * k) / 2.0, k % 2 == 1


def controlled_ry_gates(theta, controls, target):
    """Exact controlled-Ry(theta) over any number of positive controls."""
    h, z_fix = canonical_ry_halves(theta)
    n_ctrl = len(controls)
    if n_ctrl == 1:
        flip = Gate(GateKind.CNOT, (target,), ((controls[0], True),))
    elif n_ctrl == 2:
        flip = Gate(GateKind.TOFFOLI, (target,),
                    ((controls[0], True), (controls[1], True)))
    else:
        raise ParameterError("controlled_ry supports 1 or 2 controls")
    gates = [flip, Gate(GateKind.RY, (target,), (), -h),
             flip, Gate(GateKind.RY, (target,), (), h)]
    if z_fix:
        if n_ctrl == 1:
            gates.append(Gate(GateKind.Z, (controls[0],)))
        else:
            gates.append(Gate(GateKind.CZ, tuple(controls)))
    return gates


def parallel_cswap_phase_incorrect_gates(controls, pairs, layered=False):
    """Layer of phase-incorrect cswaps sharing one (polarized) control.

    Default emission is one whole controlled-swap fragment per target pair; the
    shared control enters each fragment only as a control (architecturally a
    single fanout-CNOT), so the fragments occupy a common depth-4 layer
    while the sparse-simulation support stays bounded (each G chain closes
    back to a permutation before the next pair branches).

    ``layered=True`` emits the layered form instead - per-layer G walls
    around one explicit fanout-CNOT - which pins the whole column to a
    common start in the dependency DAG; the simulation support then grows
    with 2^pairs mid-column, so it is reserved for narrow columns.
    """
    controls = tuple(controls)
    pairs = tuple(pairs)
    gates = []
    if layered:
        for a, b in pairs:
            gates.append(Gate(GateKind.CNOT, (a,), ((b, True),)))
        for _, b in pairs:
            gates.append(Gate(GateKind.GDG, (b,)))
        for a, b in pairs:
            gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
        for _, b in pairs:
            gates.append(Gate(GateKind.GDG, (b,)))
        gates.append(Gate(GateKind.FANOUT_CNOT,
                          tuple(b for _, b in pairs), controls))
        for _, b in pairs:
            gates.append(Gate(GateKind.G, (b,)))
        for a, b in pairs:
            gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
        for _, b in pairs:
            gates.append(Gate(GateKind.G, (b,)))
        for a, b in pairs:
            gates.append(Gate(GateKind.CNOT, (a,), ((b, True),)))
        return gates
    for a, b in pairs:
        gates.append(Gate(GateKind.CNOT, (a,), ((b, True),)))
        gates.append(Gate(GateKind.GDG, (b,)))
        gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
        gates.append(Gate(GateKind.GDG, (b,)))
        gates.append(Gate(GateKind.CNOT, (b,), controls))
        gates.append(Gate(GateKind.G, (b,)))
        gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
        gates.append(Gate(GateKind.G, (b,)))
        gates.append(Gate(GateKind.CNOT, (a,), ((b, True),)))
    return gates


def _cswap_clean_gates(control, pairs, pool):
    copies = pool[:len(pairs)]
    ctrl = ((control, True),)
    gates = [Gate(GateKind.FANOUT_CNOT, copies, ctrl)]
    for a, b in pairs:
        gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
    for (a, b), cp in zip(pairs, copies):
        gates.append(Gate(GateKind.TOFFOLI, (a,), ((b, True), (cp, True))))
    for a, b in pairs:
        gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
    gates.append(Gate(GateKind.FANOUT_CNOT, copies, ctrl))
    return gates


def parallel_cswap_clean(control, pairs, pool):
    """Phase-correct parallel controlled-swap macro (CNOT-conjugated
    Toffolis with a fanned-out control copy).

    Cost (4k, 1): ``pool`` holds 2k register qubits, a copy of the control
    for each pair (the first k) and the measurement-assisted Toffolis'
    scratch qubits (the last k).
    """
    pairs = tuple(pairs)
    k = len(pairs)
    pool = tuple(pool)
    if len(pool) < 2 * k:
        raise ParameterError(f"need a pool of 2k = {2 * k} qubits")
    return Macro(MacroKind.PARALLEL_CSWAP_CLEAN, {"k": k}, _cswap_clean_gates,
                 (control, pairs, pool), 4 * k, 1,
                 full=pool[:k] + tuple(q for pair in pairs for q in pair),
                 ctrl=(control,))


def _and_toffoli_gates(c1, c2, target):
    return [Gate(GateKind.TOFFOLI, (target,), ((c1, True), (c2, True)))]


def and_toffoli(c1, c2, target):
    """Measurement-assisted Toffoli macro: T-count 4, T-depth 1.

    The expansion is a plain Toffoli (the exact measurement-free unitary);
    the Jones-style scratch qubit is a register qubit the caller keeps free.
    """
    return Macro(MacroKind.AND_TOFFOLI, {}, _and_toffoli_gates,
                 (c1, c2, target), 4, 1, full=(target,), ctrl=(c1, c2))


def match_controls(select_qubits, value):
    s = len(select_qubits)
    return tuple((q, bool((value >> (s - 1 - i)) & 1))
                 for i, q in enumerate(select_qubits))


def _unary_select_gates(select_qubits, rows, slots, flag):
    gates = []
    slots = np.asarray(slots)
    for j, row in enumerate(rows):
        targets = tuple(slots[np.flatnonzero(row)].tolist())
        if flag is None:
            if targets:
                gates.append(Gate(GateKind.FANOUT_CNOT, targets,
                                  ((select_qubits[0], bool(j)),)))
            continue
        mcx = Gate(GateKind.MCX, (flag,), match_controls(select_qubits, j))
        gates.append(mcx)
        if targets:
            gates.append(Gate(GateKind.FANOUT_CNOT, targets, ((flag, True),)))
        gates.append(mcx)
    return gates


def unary_select(select_qubits, rows, slots, flag=None):
    """Unary-iteration select macro writing one classical row per address.

    Select value j flips the ``slots`` where row j of the 0/1 array
    ``rows`` is 1.  Cost is the unary iteration model: T-count = T-depth =
    4*(2^s - 1) with s - 1 scratch qubits, a register the caller allocates.
    The expansion computes an address-match ``flag`` (the first of those
    qubits, required for s >= 2) with a mixed-polarity MCX, fanout-writes
    the row, and uncomputes; for s = 1 the polarized select bit drives the
    fanout directly and ``flag`` is unused.  All-zero rows keep the roles.
    """
    select_qubits = tuple(select_qubits)
    slots = tuple(slots)
    s = len(select_qubits)
    if s < 1:
        raise ParameterError("s must be >= 1")
    if np.shape(rows) != (1 << s, len(slots)):
        raise ParameterError(f"rows must be 2^{s} rows of {len(slots)} bits")
    if s == 1:
        flag = None
    elif flag is None:
        raise ParameterError("s >= 2 needs a flag qubit")
    cost = 4 * ((1 << s) - 1)
    return Macro(MacroKind.UNARY_SELECT, {"s": s}, _unary_select_gates,
                 (select_qubits, rows, slots, flag), cost, cost,
                 full=slots + ((flag,) if s >= 2 else ()), ctrl=select_qubits)


def _unary_step_gates(select_qubits, from_value, to_value, flag):
    return [
        Gate(GateKind.MCX, (flag,), match_controls(select_qubits, from_value)),
        Gate(GateKind.MCX, (flag,), match_controls(select_qubits, to_value)),
    ]


def unary_step(select_qubits, from_value, to_value, flag):
    """One walk step of unary iteration: uncompute flag(j), compute flag(j+1).

    Carries the amortized cost (4, 4, 0); the 2^s - 1 steps of a full loop
    reproduce the 4*(2^s - 1) model.
    """
    return Macro(MacroKind.UNARY_STEP, {"from": from_value, "to": to_value},
                 _unary_step_gates,
                 (tuple(select_qubits), from_value, to_value, flag), 4, 4,
                 full=(flag,), ctrl=select_qubits)
