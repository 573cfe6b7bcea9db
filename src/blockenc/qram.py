"""Circuit generators for the data-loading primitives.

Three loaders parameterized by the depth/width tradeoff lambda:

* select-swap LOAD: unary-iteration select over the high address bits, then
  a phase-incorrect controlled-swap network over the low bits (garbage stays
  in the swap ancillas),
* bucket-brigade LOAD: per-iteration flag gating, routers loaded by
  controlled-swap descent through a binary tree, data imprinted by Z gates on
  a |+> bus; garbage-free,
* LOADF: flag-conditioned loading of single-qubit rotated states, built from
  phase-correct swap networks (one ``SwapNetwork`` op each) and blocks of
  doubly-controlled rotations (one ``RotationBlock`` op each): four ops per
  copy, emitted copy by copy between two X layers shared by every copy.

Each run of one single-qubit Clifford (the select-swap data write at s = 0,
a bucket-brigade iteration's Z imprints, the bus's H walls) is one
``CliffordLayer`` op.

Select-swap columns and swap-network columns take their stride-2^k slot
pairs from ``circuit.stride_pairs``.

Emission order is the natural semantic order; the dependency DAG of the
counter then recovers the layer pipelining on its own (ops that share no
qubits, or share only controls, take the same T-layer).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import (
    CircuitBuilder,
    Gate,
    GateKind,
    RotationBlock,
    SwapLayer,
    SwapNetwork,
    adjoint_ops,
    clifford_layer_ops,
    stride_pairs,
)
from .decomp import match_controls, unary_select, unary_step


class ConfigurationError(ValueError):
    pass


class QramModel(str, Enum):
    SELECT_SWAP = "ss"
    BUCKET_BRIGADE = "bb"
    FLAGS = "flags"


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one data-loading instance."""

    n: int
    data_width: int
    lam: int
    model: QramModel
    rows: object = ()    # (2^n, data_width) 0/1 array

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("need at least one address bit")
        if not 0 <= self.lam <= self.n:
            raise ConfigurationError("lambda must lie in [0, n]")
        if self.data_width < 1:
            raise ConfigurationError("data width must be >= 1")
        if np.shape(self.rows) != (1 << self.n, self.data_width):
            raise ConfigurationError(
                f"expected 2^{self.n} data rows of {self.data_width} bits")

    @property
    def select_bits(self):
        return self.n - self.lam


# ---------------------------------------------------------------------------
# Select-swap
# ---------------------------------------------------------------------------

class SelectSwapLoad:
    """Plan for one select-swap LOAD over existing address/data registers."""

    def __init__(self, builder: CircuitBuilder, addr_qubits, data_qubits,
                 spec: LoadSpec):
        self.spec = spec
        self.addr = tuple(addr_qubits)
        self.data = tuple(data_qubits)
        n, d, lam = spec.n, spec.data_width, spec.lam
        n_slots = 1 << lam
        anc = builder.maybe_allocate("qram_anc", (n_slots - 1) * d)
        self.slots = [self.data]
        for c in range(1, n_slots):
            self.slots.append(anc[(c - 1) * d: c * d])
        s = spec.select_bits
        self.select_anc = builder.maybe_allocate("select_anc", max(s - 1, 0))

    def build_ops(self):
        spec = self.spec
        lam, s = spec.lam, spec.select_bits
        # Select: write row (i * 2^lam + c) into slot c for select value i.
        all_slots = tuple(q for slot in self.slots for q in slot)
        rows = np.asarray(spec.rows).reshape(1 << s, -1)
        if s == 0:
            ops = clifford_layer_ops(
                GateKind.X, (all_slots[i] for i in np.flatnonzero(rows[0])))
        else:
            ops = [unary_select(
                self.addr[:s], rows, all_slots,
                flag=self.select_anc[0] if self.select_anc else None)]
        # Swap: move slot j_low to slot 0, low stride first.
        for k in range(lam):
            ctrl = self.addr[s + (lam - 1 - k)]
            pairs = [qp for a, b in stride_pairs(self.slots, k)
                     for qp in zip(a, b)]
            ops.append(SwapLayer(((ctrl, True),), pairs))
        return ops


def build_load_ss(spec: LoadSpec):
    """Standalone select-swap LOAD circuit."""
    if spec.model is not QramModel.SELECT_SWAP:
        raise ConfigurationError("spec.model must be select_swap")
    b = CircuitBuilder()
    addr = b.allocate("addr", spec.n)
    data = b.allocate("data", spec.data_width)
    plan = SelectSwapLoad(b, addr.qubits, data.qubits, spec)
    b.begin_stage("load_ss")
    b.extend(plan.build_ops())
    return b.build()


# ---------------------------------------------------------------------------
# Bucket-brigade
# ---------------------------------------------------------------------------

class BucketBrigadeLoad:
    """Plan for one bucket-brigade LOAD; the data register is the |+> bus."""

    def __init__(self, builder: CircuitBuilder, addr_qubits, data_qubits,
                 spec: LoadSpec):
        self.spec = spec
        self.addr = tuple(addr_qubits)
        self.bus = tuple(data_qubits)
        n, d, lam = spec.n, spec.data_width, spec.lam
        self.flag = builder.allocate("bb_flag", 1)[0]
        self.anc_d = builder.allocate("bb_anc_d", d).qubits
        self.anc_lam = builder.maybe_allocate("bb_anc_lam", lam)
        self.routers = builder.maybe_allocate("bb_routers",
                                              (1 << lam) - 2 if lam >= 2 else 0)
        self.paths = builder.maybe_allocate("bb_paths",
                                            ((1 << (lam + 1)) - 2) * d)
        s = spec.select_bits
        self.select_anc = builder.maybe_allocate("select_anc", max(s - 1, 0))

    def _router(self, level, node):
        if level == 0:
            return self.anc_lam[0]
        return self.routers[(1 << level) - 2 + node]

    def _path(self, level, node):
        d = self.spec.data_width
        base = ((1 << level) - 2 + node) * d
        return self.paths[base: base + d]

    def _descend_ops(self, source, depth):
        """Route a payload from outside the tree down ``depth`` levels."""
        ops = []
        for v in range(depth):
            for positive in (False, True):
                for u in range(1 << v):
                    src = source if v == 0 else self._path(v, u)[: len(source)]
                    dst = self._path(v + 1, 2 * u + (1 if positive else 0))
                    ops.append(SwapLayer(
                        ((self._router(v, u), positive),),
                        tuple(zip(src, dst[: len(source)])), layered=True))
        return ops

    def _routing_ops(self):
        """Forward routing of the address and the data lanes into the tree."""
        lam = self.spec.lam
        forward = []
        for m in range(1, lam):
            forward.extend(self._descend_ops((self.anc_lam[m],), m))
            for u in range(1 << m):
                forward.append(Gate(GateKind.SWAP,
                                    (self._path(m, u)[0], self._router(m, u))))
        forward.extend(self._descend_ops(self.anc_d, lam))
        return forward

    def _data_layer(self, subset_rows):
        """One Z layer imprinting one iteration's rows on the routed
        leaves (no op for all-zero rows)."""
        lam = self.spec.lam
        targets = []
        for leaf, row in enumerate(subset_rows):
            leaf_qubits = self.anc_d if lam == 0 else self._path(lam, leaf)
            targets.extend(leaf_qubits[i] for i in np.flatnonzero(row))
        return clifford_layer_ops(GateKind.Z, targets)

    def build_ops(self):
        """The LOAD; the routing and the flag-controlled in/out swap layers
        are built once and shared by every select iteration."""
        spec = self.spec
        s = spec.select_bits
        n_leaves = 1 << spec.lam
        bus_h = clifford_layer_ops(GateKind.H, self.bus)
        ops = list(bus_h)
        sel = self.addr[:s]

        def match_gate(value):
            if s == 0:
                return Gate(GateKind.X, (self.flag,))
            return Gate(GateKind.MCX, (self.flag,), match_controls(sel, value))

        in_pairs = tuple(zip(self.addr[s:], self.anc_lam)) \
            + tuple(zip(self.bus, self.anc_d))
        swap_in = SwapLayer(((self.flag, True),), in_pairs, layered=True)
        swap_out = swap_in.adjoint()
        forward = self._routing_ops()
        reverse = adjoint_ops(forward)
        ops.append(match_gate(0))
        for i in range(1 << s):
            ops.append(swap_in)
            ops.extend(forward)
            ops.extend(self._data_layer(
                spec.rows[i * n_leaves: (i + 1) * n_leaves]))
            ops.extend(reverse)
            ops.append(swap_out)
            if i + 1 < (1 << s):
                ops.append(unary_step(sel, i, i + 1, self.flag))
        ops.append(match_gate((1 << s) - 1))
        ops += bus_h
        return ops


def build_load_bb(spec: LoadSpec):
    """Standalone bucket-brigade LOAD circuit."""
    if spec.model is not QramModel.BUCKET_BRIGADE:
        raise ConfigurationError("spec.model must be bucket_brigade")
    b = CircuitBuilder()
    addr = b.allocate("addr", spec.n)
    data = b.allocate("data", spec.data_width)
    plan = BucketBrigadeLoad(b, addr.qubits, data.qubits, spec)
    b.begin_stage("load_bb")
    b.extend(plan.build_ops())
    return b.build()


def load_plan(builder: CircuitBuilder, addr_qubits, data_qubits,
              spec: LoadSpec):
    """The LOAD plan ``spec.model`` names for a block of classical bit rows."""
    if spec.model is QramModel.SELECT_SWAP:
        return SelectSwapLoad(builder, addr_qubits, data_qubits, spec)
    if spec.model is QramModel.BUCKET_BRIGADE:
        return BucketBrigadeLoad(builder, addr_qubits, data_qubits, spec)
    raise ConfigurationError("bit rows are loaded with the ss or bb model")


# ---------------------------------------------------------------------------
# LOADF
# ---------------------------------------------------------------------------

class FlagLoad:
    """Plan for LOADF: D parallel copies sharing the n-bit address.

    ``thetas`` is 2^n rows of D angles, one row per address value and one
    column per copy; the plan keeps its D columns as lists of floats, one
    per copy's rotation block.  Copy r owns a flag qubit, an N-slot angle
    block (slot 0 is the output qubit and may be supplied by the caller),
    an N-slot one-hot block, and two N-qubit ancilla pools for the
    phase-correct swap networks and the doubly-controlled rotations.  Each
    copy's one-hot and angle ``SwapNetwork`` is built here, once, and every
    ``build_ops`` call emits those same objects, so a forward LOADF and an
    adjoint one share every network's fields.
    """

    def __init__(self, builder: CircuitBuilder, addr_qubits, thetas,
                 flags=None, angle_slot0=None):
        self.addr = tuple(addr_qubits)
        big_n = 1 << len(self.addr)
        try:
            thetas = np.asarray(thetas, dtype=float)
        except ValueError:
            thetas = None
        if not self.addr or thetas is None or thetas.ndim != 2 \
                or thetas.shape[0] != big_n or thetas.shape[1] < 1:
            raise ConfigurationError(
                "thetas must be 2^n rows (n >= 1) of D >= 1 angles")
        self.thetas = thetas.T.tolist()
        controls = self.addr[::-1]
        self.copies = []
        for r in range(len(self.thetas)):
            flag = flags[r] if flags is not None else builder.allocate(
                f"f{r}_flag", 1)[0]
            if angle_slot0 is not None:
                angle = (angle_slot0[r],) + builder.allocate(
                    f"f{r}_angle", big_n - 1).qubits
            else:
                angle = builder.allocate(f"f{r}_angle", big_n).qubits
            onehot = builder.allocate(f"f{r}_onehot", big_n).qubits
            pool_a = builder.allocate(f"f{r}_pool_a", big_n).qubits
            pool_b = builder.allocate(f"f{r}_pool_b", big_n).qubits
            self.copies.append((flag, angle, onehot, pool_a, pool_b,
                                SwapNetwork(controls, onehot, pool_b),
                                SwapNetwork(controls, angle, pool_a)))

    @property
    def pools(self):
        """Copy 0's pools A and B, clean outside LOADF, so that the ops
        around it may borrow them."""
        return self.copies[0][3:5]

    def build_ops(self, static_flags_one=False):
        """One X layer on every copy's one-hot slot 0, then copy by copy
        four ops (the inverse one-hot network, slot 0 -> slot j, the
        rotation block, the angle network and the one-hot network), and the
        X layer again.  One-hot networks draw on pool B, angle networks on
        pool A.  The rotation block V rotates angle slot k by theta^(k)
        under the flag and one-hot controls; its columns are the copy's
        registers, its expansion runs slot by slot, so the simulator
        branches on one angle slot at a time, and each Toffoli's scratch
        qubit is pool_a[k].

        Copies share only the address, as controls, so each copy's four ops
        form one run that no other copy's op interleaves.
        """
        ops = []
        for (flag, angle, onehot, _, pool_b, onehot_network,
             angle_network), thetas in zip(self.copies, self.thetas):
            if static_flags_one:
                block = RotationBlock((onehot, angle), thetas)
            else:
                block = RotationBlock((pool_b, onehot, angle), thetas,
                                      fanout=flag)
            ops += (onehot_network.adjoint(), block, angle_network,
                    onehot_network)
        x = clifford_layer_ops(GateKind.X,
                               (copy[2][0] for copy in self.copies))
        return x + ops + x


def build_loadf(thetas):
    """Standalone LOADF circuit of 2^n rows of D angles; address register
    first, then per-copy blocks."""
    b = CircuitBuilder()
    addr = b.allocate("addr", max(len(thetas).bit_length() - 1, 1))
    plan = FlagLoad(b, addr.qubits, thetas)
    b.begin_stage("loadf")
    b.extend(plan.build_ops())
    return b.build()
