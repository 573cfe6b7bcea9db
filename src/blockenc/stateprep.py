"""State-preparation circuit generators.

Fixed-precision: swap t-bit angle descriptions into a working register with
phase-incorrect controlled-swap networks (S_p), rotate through a ladder of t
singly-controlled fixed-angle rotations per step (one rotation block whose
slots share the step's data qubit as their target), apply the selected sign
with a Z, and restore the block with the single inverse network.

Pre-rotated: inject pre-rotated single-qubit angle states into the data by
plain swaps, with phase-correct S_p networks, then uncompute the leftover
garbage with the FLAG mechanism and controlled inverse rotations.

The S_p network at step p is controlled on data qubit p-1 only and performs
one halving of the live window at every remaining heap level, so each step
costs constant T-depth.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import (
    CircuitBuilder,
    Gate,
    GateKind,
    RotationBlock,
    SwapLayer,
    adjoint_ops,
    clifford_layer_ops,
)
from .decomp import parallel_cswap_clean
from .angle_tree import TWO_PI, heap_angles, prerotated_angles
from .qram import FlagLoad


def s_column_spec(n, p):
    """Register-level moves of S_p: (angle register pairs, sign index pairs).

    Angle pairs halve the live window of every heap level m >= p-1 with
    stride 2^(m-p+1); sign pairs halve the leaf-sign block with stride
    2^(n-p+1).  All controlled on data qubit p-1.
    """
    angle_pairs = []
    for m in range(p - 1, n):
        stride = 1 << (m - p + 1)
        base = 1 << m
        for i in range(stride):
            angle_pairs.append((base + i, base + i + stride))
    stride = 1 << (n - p + 1)
    sign_pairs = [(i, i + stride) for i in range(stride)]
    return angle_pairs, sign_pairs


def _positions(n, p):
    """S_p in slot positions: heap index r sits at position r - 1 of a slot
    register, so the root is position 0.  Returns the angle pairs, the sign
    pairs and the position the root swaps with, 2^(p-1) - 1."""
    angle_pairs, sign_pairs = s_column_spec(n, p)
    return ([(a - 1, b - 1) for a, b in angle_pairs], sign_pairs,
            (1 << (p - 1)) - 1)


def ladder_angles(t):
    """Fixed rotation angles pi, pi/2, ..., pi*2^(1-t) of the bit ladder."""
    return [math.pi * (2.0 ** (1 - j)) for j in range(1, t + 1)]


def sp_fixed_ops(data, block, t):
    """Fixed-precision SP body acting on |0>_n (x) |Theta>(x)|s> registers.

    ``block`` holds N-1 t-qubit working slots in heap order, then the N sign
    qubits.
    """
    n = len(data)
    split = ((1 << n) - 1) * t
    a_slots = [block[i: i + t] for i in range(0, split, t)]
    s_block = block[split:]
    ops = []
    s_ops = []
    ladder = ladder_angles(t)

    def emit(op, record=False):
        ops.append(op)
        if record:
            s_ops.append(op)

    for p in range(1, n + 1):
        if p >= 2:
            angle_pairs, sign_pairs, step = _positions(n, p)
            qubit_pairs = []
            for a, b in angle_pairs:
                qubit_pairs.extend(zip(a_slots[a], a_slots[b]))
            qubit_pairs.extend((s_block[i], s_block[j]) for i, j in sign_pairs)
            emit(SwapLayer(((data[p - 2], True),), qubit_pairs), record=True)
            for qa, qb in zip(a_slots[0], a_slots[step]):
                emit(Gate(GateKind.SWAP, (qa, qb)), record=True)
        emit(RotationBlock((a_slots[0], (data[p - 1],) * t), ladder))
    # Sign selection and application.
    emit(SwapLayer(((data[n - 1], True),), ((s_block[0], s_block[1]),)),
         record=True)
    emit(Gate(GateKind.SWAP, (a_slots[0][0], s_block[0])), record=True)
    ops.append(Gate(GateKind.Z, (a_slots[0][0],)))
    ops.extend(adjoint_ops(s_ops))
    return ops


def fixed_init_ops(block, row):
    """One X layer writing one LOAD row into a fixed-precision block (no op
    for an all-zero row)."""
    return clifford_layer_ops(GateKind.X,
                              (block[i] for i in np.flatnonzero(row)))


def fixed_data_width(n, t):
    """Qubits of a fixed-precision data block: N-1 t-bit angles, N signs."""
    return ((1 << n) - 1) * t + (1 << n)


def build_sp_fixed(vector, t: int):
    """Standalone fixed-precision state preparation of one vector."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = len(vector).bit_length() - 1
    b = CircuitBuilder()
    data = b.allocate("data", n)
    angle = b.allocate("angle", ((1 << n) - 1) * t)
    sign = b.allocate("sign", 1 << n)
    block = angle.qubits + sign.qubits
    init = fixed_init_ops(block, fixed_rows_for_trees([vector], t)[0])
    b.begin_stage("init")
    b.extend(init)
    b.begin_stage("sp")
    b.extend(sp_fixed_ops(data.qubits, block, t))
    b.begin_stage("uninit")
    b.extend(init)
    return b.build()


# ---------------------------------------------------------------------------
# Pre-rotated
# ---------------------------------------------------------------------------

def _one_wide_column(control, pairs, slots, pool):
    """One phase-correct S_p column over 1-wide slots, pool-backed."""
    pairs = [(slots[a], slots[b]) for a, b in pairs]
    return parallel_cswap_clean(control=control, pairs=pairs,
                                pool=pool[: 2 * len(pairs)])


def spf_forward_ops(data, slots, pool):
    """SPF forward: inject/shuffle; returns (ops, s_ops) with s_ops recorded."""
    n = len(data)
    ops = [Gate(GateKind.SWAP, (data[0], slots[0]))]
    s_ops = []
    for p in range(2, n + 1):
        angle_pairs, _, step = _positions(n, p)
        col = _one_wide_column(data[p - 2], angle_pairs, slots, pool)
        plain = Gate(GateKind.SWAP, (slots[0], slots[step]))
        ops += [col, plain, Gate(GateKind.SWAP, (data[p - 1], slots[0]))]
        s_ops += [col, plain]
    return ops, s_ops


def flag_dagger_ops(data, f_slots, pool):
    """FLAG^dagger: X / S_p / X alternation returning all flags to |1>."""
    n = len(data)
    ops = [Gate(GateKind.X, (f_slots[0],))]
    for p in range(2, n + 1):
        angle_pairs, _, step = _positions(n, p)
        ops += [_one_wide_column(data[p - 2], angle_pairs, f_slots, pool),
                Gate(GateKind.SWAP, (f_slots[0], f_slots[step])),
                Gate(GateKind.X, (f_slots[0],))]
    return ops


def _repair_ops(data, slots, f_slots, pool_a, pool_b, repair):
    """SPF forward and its S_p columns undone, then FLAG^dagger undone, the
    ``repair`` ops and FLAG^dagger again: one FLAG^dagger serves both."""
    fwd, s_ops = spf_forward_ops(data, slots, pool_a)
    fdg = flag_dagger_ops(data, f_slots, pool_b)
    return fwd + adjoint_ops(s_ops) + adjoint_ops(fdg) + repair + fdg


def sp_prerotated_ops(data, slots, f_slots, pool_a, pool_b, vectors):
    """Garbage-free pre-rotated SP body over existing angle/flag registers,
    preparing the one row of ``vectors``.  ``slots`` and ``f_slots`` hold
    the N-1 angle and flag qubits in heap order."""
    folded = prerotated_angles(vectors)[0].tolist()
    flags = clifford_layer_ops(GateKind.X, f_slots)
    ops = []
    for q, theta in zip(slots, folded):
        # Two half-angle rotations: the synthesized form H*H of one V_r.
        ops.append(Gate(GateKind.RY, (q,), (), theta / 2.0))
        ops.append(Gate(GateKind.RY, (q,), (), theta / 2.0))
    ops += flags
    ops += _repair_ops(data, slots, f_slots, pool_a, pool_b, [RotationBlock(
        (f_slots, slots), [-theta for theta in folded])])
    ops += flags
    return ops


def build_sp_prerotated(vector):
    """Standalone garbage-free pre-rotated state preparation of one vector."""
    n = len(vector).bit_length() - 1
    big_n = 1 << n
    b = CircuitBuilder()
    data = b.allocate("data", n)
    angle = b.allocate("angle", big_n - 1)
    flag = b.allocate("flag", big_n - 1)
    pool_a = b.maybe_allocate("pool_a", big_n - 2)
    pool_b = b.maybe_allocate("pool_b", big_n - 2)
    b.begin_stage("sp_prerotated")
    b.extend(sp_prerotated_ops(data.qubits, angle.qubits, flag.qubits,
                               pool_a, pool_b, [vector]))
    return b.build()


# ---------------------------------------------------------------------------
# Controlled state preparation
# ---------------------------------------------------------------------------

def fixed_rows_for_trees(vectors, t):
    """LOAD bit rows of a (K, 2^n) array of amplitude vectors, as a (K, D)
    uint8 array in the data-block layout: each heap-order angle rounded to
    the nearest multiple of 2*pi/2^t (ties up) as t bits, MSB first, then
    the 2^n sign bits.  The rounding is exact for every t <= 1023: scaling
    by 2^t is exact, and so is splitting off the fraction.  The steps, at
    most 2^t, are shifted as int64 for t <= 62 and divided as floats above
    that, both exact."""
    vectors = np.asarray(vectors, dtype=float)
    scaled = np.ldexp(heap_angles(vectors) / TWO_PI, t)
    steps = np.floor(scaled)
    steps += scaled - steps >= 0.5
    bits = np.empty(steps.shape + (t,), dtype=np.uint8)
    if t <= 62:
        steps = steps.astype(np.int64)
        for j in range(t):
            bits[:, :, j] = (steps >> (t - 1 - j)) & 1
    else:
        for j in range(t):
            bits[:, :, j] = np.floor(steps / 2.0 ** (t - 1 - j)) % 2
    return np.concatenate([bits.reshape(len(vectors), -1), vectors < 0],
                          axis=1)


def csp_prerotated_ops(builder, data, angle, flag, control, vectors):
    """Controlled pre-rotated SP ops over existing block registers.

    Allocates the per-copy LOADF blocks on the builder and returns
    ``(ops, pools)``: ``pools`` are LOADF's ``FlagLoad.pools``, which the
    plain state preparation may borrow too.  The forward LOADF uses the
    statically-known flags (singly-controlled rotations) while the reverse
    leg keeps the doubly-controlled form, whose flag controls skip the
    injected slots.
    """
    plan = FlagLoad(builder, control, prerotated_angles(vectors),
                    flags=flag, angle_slot0=angle)
    # The flag X layer and LOADF's first one-hot X layer are one layer.
    onehot_x, *loadf = plan.build_ops(static_flags_one=True)
    ops = clifford_layer_ops(GateKind.X, flag + onehot_x.targets) + loadf
    ops += _repair_ops(data, angle, flag, *plan.pools, adjoint_ops(
        plan.build_ops(static_flags_one=False)))
    ops += clifford_layer_ops(GateKind.X, flag)
    return ops, plan.pools
