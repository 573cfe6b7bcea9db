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
from .qram import FlagLoad, LoadSpec, QramModel


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


def ladder_angles(t):
    """Fixed rotation angles pi, pi/2, ..., pi*2^(1-t) of the bit ladder."""
    return [math.pi * (2.0 ** (1 - j)) for j in range(1, t + 1)]


def sp_fixed_ops(data, a_slots, s_block, n, t):
    """Fixed-precision SP body acting on |0>_n (x) |Theta>(x)|s> registers.

    ``a_slots[r]`` is the t-qubit working slot for heap index r (1-based);
    ``s_block`` holds the N sign qubits.
    """
    ops = []
    s_ops = []
    ladder = ladder_angles(t)

    def emit(op, record=False):
        ops.append(op)
        if record:
            s_ops.append(op)

    for p in range(1, n + 1):
        if p >= 2:
            angle_pairs, sign_pairs = s_column_spec(n, p)
            qubit_pairs = []
            for ra, rb in angle_pairs:
                qubit_pairs.extend(zip(a_slots[ra], a_slots[rb]))
            qubit_pairs.extend((s_block[i], s_block[j]) for i, j in sign_pairs)
            emit(SwapLayer(((data[p - 2], True),), qubit_pairs), record=True)
            for qa, qb in zip(a_slots[1], a_slots[1 << (p - 1)]):
                emit(Gate(GateKind.SWAP, (qa, qb)), record=True)
        emit(RotationBlock(((c, data[p - 1]) for c in a_slots[1]), ladder))
    # Sign selection and application.
    emit(SwapLayer(((data[n - 1], True),), ((s_block[0], s_block[1]),)),
         record=True)
    emit(Gate(GateKind.SWAP, (a_slots[1][0], s_block[0])), record=True)
    ops.append(Gate(GateKind.Z, (a_slots[1][0],)))
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


def fixed_slots(block, n, t):
    """Split a fixed-precision data block into its angle slots and signs.

    Returns ``(a_slots, s_block)``: ``a_slots[r]`` holds the t qubits of heap
    index r (1-based) in heap order, and the N sign qubits follow them.
    """
    big_n = 1 << n
    a_slots = {r: tuple(block[(r - 1) * t: r * t]) for r in range(1, big_n)}
    return a_slots, tuple(block[(big_n - 1) * t:])


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
    a_slots, s_block = fixed_slots(block, n, t)
    init = fixed_init_ops(block, fixed_rows_for_trees([vector], t)[0])
    b.begin_stage("init")
    b.extend(init)
    b.begin_stage("sp")
    b.extend(sp_fixed_ops(data.qubits, a_slots, s_block, n, t))
    b.begin_stage("uninit")
    b.extend(init)
    return b.build()


# ---------------------------------------------------------------------------
# Pre-rotated
# ---------------------------------------------------------------------------

def _one_wide_column_ops(control, reg_pairs, slots, pool):
    """One phase-correct S_p column over 1-wide slots, pool-backed."""
    pairs = [(slots[a], slots[b]) for a, b in reg_pairs]
    return [parallel_cswap_clean(control=control, pairs=pairs,
                                 pool=pool[: 2 * len(pairs)])]


def spf_forward_ops(data, slots, n, pool):
    """SPF forward: inject/shuffle; returns (ops, s_ops) with s_ops recorded."""
    ops = []
    s_ops = []
    ops.append(Gate(GateKind.SWAP, (data[0], slots[1])))
    for p in range(2, n + 1):
        angle_pairs, _ = s_column_spec(n, p)
        col = _one_wide_column_ops(data[p - 2], angle_pairs, slots, pool)
        ops.extend(col)
        s_ops.extend(col)
        plain = Gate(GateKind.SWAP, (slots[1], slots[1 << (p - 1)]))
        ops.append(plain)
        s_ops.append(plain)
        ops.append(Gate(GateKind.SWAP, (data[p - 1], slots[1])))
    return ops, s_ops


def flag_dagger_ops(data, f_slots, n, pool):
    """FLAG^dagger: X / S_p / X alternation returning all flags to |1>."""
    ops = [Gate(GateKind.X, (f_slots[1],))]
    for p in range(2, n + 1):
        ops.extend(_one_wide_column_ops(data[p - 2],
                                        s_column_spec(n, p)[0], f_slots, pool))
        ops.append(Gate(GateKind.SWAP, (f_slots[1], f_slots[1 << (p - 1)])))
        ops.append(Gate(GateKind.X, (f_slots[1],)))
    return ops


def _repair_ops(data, slots, f_slots, pool_a, pool_b, repair):
    """SPF forward and its S_p columns undone, then FLAG^dagger undone, the
    ``repair`` ops and FLAG^dagger again: one FLAG^dagger serves both."""
    n = len(data)
    fwd, s_ops = spf_forward_ops(data, slots, n, pool_a)
    fdg = flag_dagger_ops(data, f_slots, n, pool_b)
    return fwd + adjoint_ops(s_ops) + adjoint_ops(fdg) + repair + fdg


def sp_prerotated_ops(data, slots, f_slots, pool_a, pool_b, vectors):
    """Garbage-free pre-rotated SP body over existing angle/flag registers,
    preparing the one row of ``vectors``."""
    n = len(data)
    big_n = 1 << n
    folded = prerotated_angles(vectors)[0].tolist()
    flags = clifford_layer_ops(GateKind.X,
                               (f_slots[r] for r in range(1, big_n)))
    ops = []
    for r, theta in enumerate(folded, start=1):
        # Two half-angle rotations: the synthesized form H*H of one V_r.
        ops.append(Gate(GateKind.RY, (slots[r],), (), theta / 2.0))
        ops.append(Gate(GateKind.RY, (slots[r],), (), theta / 2.0))
    ops += flags
    ops += _repair_ops(data, slots, f_slots, pool_a, pool_b, [RotationBlock(
        ((f_slots[r], slots[r]) for r in range(1, big_n)),
        [-theta for theta in folded])])
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
    slots = {r: angle.qubits[r - 1] for r in range(1, big_n)}
    f_slots = {r: flag.qubits[r - 1] for r in range(1, big_n)}
    b.begin_stage("sp_prerotated")
    b.extend(sp_prerotated_ops(
        data.qubits, slots, f_slots,
        pool_a.qubits if pool_a else (), pool_b.qubits if pool_b else (),
        [vector]))
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
    ``(ops, plan)``; the forward LOADF uses the statically-known flags
    (singly-controlled rotations) while the reverse leg keeps the
    doubly-controlled form, whose flag controls skip the injected slots.
    """
    n = len(data)
    big_n = 1 << n
    spec = LoadSpec(n=n, data_width=big_n - 1, lam=n, model=QramModel.FLAGS)
    plan = FlagLoad(builder, control, spec, prerotated_angles(vectors),
                    flags=flag, angle_slot0=angle)
    slots = {r: angle[r - 1] for r in range(1, big_n)}
    f_slots = {r: flag[r - 1] for r in range(1, big_n)}
    pa = plan.copies[0][3]
    pb = plan.copies[0][4]

    # The flag X layer and LOADF's first one-hot X layer are one layer.
    onehot_x, *loadf = plan.build_ops(static_flags_one=True)
    ops = clifford_layer_ops(GateKind.X, flag + onehot_x.targets) + loadf
    ops += _repair_ops(data, slots, f_slots, pa, pb, adjoint_ops(
        plan.build_ops(static_flags_one=False)))
    ops += clifford_layer_ops(GateKind.X, flag)
    return ops, plan

