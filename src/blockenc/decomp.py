"""Clifford+T gate decompositions and costed macro factories.

Each factory returns a plain gate list, whose counted resources are its
cost, or a ``Macro`` with a declared cost, qubit roles that do not depend on
the data, and an exact unitary expansion; the circuit text holds a macro's
factory arguments, and the parser calls the factory again.  These, the
layers of phase-incorrect controlled swaps (``circuit.SwapLayer``), the
LOADF swap networks (``circuit.SwapNetwork``, whose columns are
``parallel_cswap_clean``) and the blocks of controlled rotations
(``circuit.RotationBlock``, whose slots are ``controlled_ry_gates``), all
three built directly, are the gadgets the generators emit; a macro and those
three are ``circuit.Compound`` ops, whose one ``adjoint()`` shares every
field and flips ``inverted``:

* ``controlled_ry_gates``: an exact singly or doubly controlled RY, only
  ever one slot of a rotation block (a step of the fixed-precision ladder,
  the pre-rotated repair rotations and LOADF);
* ``parallel_cswap_clean``: phase-correct controlled swaps of k pairs over a
  pool of 2k qubits (control copies, then Toffoli scratch), alone (a column
  of the pre-rotated state preparation's S_p and the controlled encoding's
  staged swaps) or as one column of a swap network (LOADF);
* ``unary_select`` and ``unary_step``: unary iteration over select values.
"""
from __future__ import annotations

import numpy as np

from .circuit import Gate, GateKind, Macro, MacroKind


class ParameterError(ValueError):
    pass


def controlled_ry_gates(theta, controls, target):
    """Exact controlled-Ry(theta) over one or two positive controls: flip,
    RY(-theta/2), flip, RY(theta/2), since X RY(a) X = RY(-a)."""
    n_ctrl = len(controls)
    if n_ctrl == 1:
        flip = Gate(GateKind.CNOT, (target,), ((controls[0], True),))
    elif n_ctrl == 2:
        flip = Gate(GateKind.TOFFOLI, (target,),
                    ((controls[0], True), (controls[1], True)))
    else:
        raise ParameterError("controlled_ry supports 1 or 2 controls")
    return [flip, Gate(GateKind.RY, (target,), (), -theta / 2.0),
            flip, Gate(GateKind.RY, (target,), (), theta / 2.0)]


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

    Cost (4k, 1): ``pool`` holds exactly 2k register qubits, a copy of the
    control for each pair (the first k) and the measurement-assisted
    Toffolis' scratch qubits (the last k, the macro's ``scratch``).
    """
    pairs = tuple(pairs)
    k = len(pairs)
    pool = tuple(pool)
    if len(pool) != 2 * k:
        raise ParameterError(f"need a pool of 2k = {2 * k} qubits")
    return Macro(MacroKind.PARALLEL_CSWAP_CLEAN, _cswap_clean_gates,
                 (control, pairs, pool), 4 * k, 1,
                 full=pool[:k] + tuple(q for pair in pairs for q in pair),
                 ctrl=(control,), scratch=pool[k:])


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
    return Macro(MacroKind.UNARY_SELECT, _unary_select_gates,
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
    reproduce the 4*(2^s - 1) model.  Both values lie in [0, 2^s).
    """
    s = len(select_qubits)
    if not (0 <= from_value < 1 << s and 0 <= to_value < 1 << s):
        raise ParameterError(f"select values must lie in [0, 2^{s})")
    return Macro(MacroKind.UNARY_STEP, _unary_step_gates,
                 (tuple(select_qubits), from_value, to_value, flag), 4, 4,
                 full=(flag,), ctrl=select_qubits)
