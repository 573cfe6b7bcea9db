"""Circuit generators for the data-loading primitives.

Three loaders parameterized by the depth/width tradeoff lambda:

* select-swap LOAD: unary-iteration select over the high address bits, then
  a phase-incorrect controlled-swap network over the low bits (garbage stays
  in the swap ancillas),
* bucket-brigade LOAD: per-iteration flag gating, routers loaded by
  controlled-swap descent through a binary tree, data imprinted by Z gates on
  a |+> bus; garbage-free,
* LOADF: flag-conditioned loading of single-qubit rotated states, built from
  phase-correct swap networks and doubly-controlled rotations.

Emission order is the natural semantic order; the dependency DAG of the
counter then recovers the layer pipelining on its own (ops that share no
qubits, or share only controls, take the same T-layer).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import CircuitBuilder, Gate, GateKind, adjoint_ops
from .decomp import (
    and_toffoli,
    controlled_ry_gates,
    canonical_ry_halves,
    match_controls,
    parallel_cswap_clean,
    parallel_cswap_phase_incorrect_gates,
    unary_select,
    unary_step,
)


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
    rows: object = ()    # (2^n, data_width) 0/1 array (ss/bb)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("need at least one address bit")
        if not 0 <= self.lam <= self.n:
            raise ConfigurationError("lambda must lie in [0, n]")
        if self.model is QramModel.FLAGS and self.lam != self.n:
            raise ConfigurationError("the flags model requires lambda = n")
        if self.data_width < 1:
            raise ConfigurationError("data width must be >= 1")
        if self.model is not QramModel.FLAGS \
                and np.shape(self.rows) != (1 << self.n, self.data_width):
            raise ConfigurationError(
                f"expected 2^{self.n} data rows of {self.data_width} bits")

    @property
    def select_bits(self):
        return self.n - self.lam


def _halving_pairs(slots, k):
    """Slot pairs (c, c + 2^k) of one swap-network column, c a multiple
    of 2^(k+1): the column that halves the live slots at stride 2^k."""
    return [(slots[c], slots[c + (1 << k)])
            for c in range(0, len(slots), 2 << k)]


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
            self.slots.append(tuple(anc.qubits[(c - 1) * d: c * d]))
        s = spec.select_bits
        self.select_anc = builder.maybe_allocate("select_anc", max(s - 1, 0))

    def build_ops(self):
        spec = self.spec
        lam, s = spec.lam, spec.select_bits
        # Select: write row (i * 2^lam + c) into slot c for select value i.
        all_slots = tuple(q for slot in self.slots for q in slot)
        rows = np.asarray(spec.rows).reshape(1 << s, -1)
        if s == 0:
            ops = [Gate(GateKind.X, (all_slots[i],))
                   for i in np.flatnonzero(rows[0])]
        else:
            ops = [unary_select(
                self.addr[:s], rows, all_slots,
                flag=self.select_anc[0] if self.select_anc else None)]
        # Swap: move slot j_low to slot 0, low stride first.
        for k in range(lam):
            ctrl = self.addr[s + (lam - 1 - k)]
            pairs = [qp for a, b in _halving_pairs(self.slots, k)
                     for qp in zip(a, b)]
            ops.extend(parallel_cswap_phase_incorrect_gates(((ctrl, True),), pairs))
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
        return tuple(self.paths.qubits[base: base + d])

    def _descend_ops(self, source, depth):
        """Route a payload from outside the tree down ``depth`` levels."""
        ops = []
        for v in range(depth):
            for positive in (False, True):
                for u in range(1 << v):
                    src = source if v == 0 else self._path(v, u)[: len(source)]
                    dst = self._path(v + 1, 2 * u + (1 if positive else 0))
                    ops.extend(parallel_cswap_phase_incorrect_gates(
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
        """Z imprints of one iteration's rows on the routed leaves."""
        lam = self.spec.lam
        ops = []
        for leaf, row in enumerate(subset_rows):
            leaf_qubits = self.anc_d if lam == 0 else self._path(lam, leaf)
            ops.extend(Gate(GateKind.Z, (leaf_qubits[i],))
                       for i in np.flatnonzero(row))
        return ops

    def build_ops(self):
        """The LOAD; the routing and the flag-controlled in/out swap layers
        are built once and shared by every select iteration."""
        spec = self.spec
        s = spec.select_bits
        n_leaves = 1 << spec.lam
        ops = [Gate(GateKind.H, (q,)) for q in self.bus]
        sel = self.addr[:s]

        def match_gate(value):
            if s == 0:
                return Gate(GateKind.X, (self.flag,))
            return Gate(GateKind.MCX, (self.flag,), match_controls(sel, value))

        in_pairs = tuple(zip(self.addr[s:], self.anc_lam.qubits if self.anc_lam else ())) \
            + tuple(zip(self.bus, self.anc_d))
        in_ops = parallel_cswap_phase_incorrect_gates(
            ((self.flag, True),), in_pairs, layered=True)
        out_ops = adjoint_ops(in_ops)
        forward = self._routing_ops()
        reverse = adjoint_ops(forward)
        ops.append(match_gate(0))
        for i in range(1 << s):
            ops.extend(in_ops)
            ops.extend(forward)
            ops.extend(self._data_layer(
                spec.rows[i * n_leaves: (i + 1) * n_leaves]))
            ops.extend(reverse)
            ops.extend(out_ops)
            if i + 1 < (1 << s):
                ops.append(unary_step(sel, i, i + 1, self.flag))
        ops.append(match_gate((1 << s) - 1))
        ops.extend(Gate(GateKind.H, (q,)) for q in self.bus)
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

    Copy r owns a flag qubit, an N-slot angle block (slot 0 is the output
    qubit and may be supplied by the caller), an N-slot one-hot block, and
    two N-qubit ancilla pools for the phase-correct swap networks and the
    doubly-controlled rotations.
    """

    def __init__(self, builder: CircuitBuilder, addr_qubits, spec: LoadSpec,
                 thetas, flags=None, angle_slot0=None):
        self.spec = spec
        self.addr = tuple(addr_qubits)
        n, d = spec.n, spec.data_width
        big_n = 1 << n
        self.thetas = [tuple(row) for row in thetas]
        if len(self.thetas) != big_n or any(len(r) != d for r in self.thetas):
            raise ConfigurationError("thetas must be 2^n rows of D angles")
        self.copies = []
        for r in range(d):
            flag = flags[r] if flags is not None else builder.allocate(
                f"f{r}_flag", 1)[0]
            if angle_slot0 is not None:
                head = angle_slot0[r]
                rest = builder.allocate(f"f{r}_angle", big_n - 1).qubits
                angle = (head,) + tuple(rest)
            else:
                angle = builder.allocate(f"f{r}_angle", big_n).qubits
            onehot = builder.allocate(f"f{r}_onehot", big_n).qubits
            pool_a = builder.allocate(f"f{r}_pool_a", big_n).qubits
            pool_b = builder.allocate(f"f{r}_pool_b", big_n).qubits
            self.copies.append((flag, tuple(angle), tuple(onehot),
                                tuple(pool_a), tuple(pool_b)))

    def _network_columns(self, slots_of_copy):
        """The swap network W (low stride first) bringing slot j to slot 0."""
        n = self.spec.n
        return [(self.addr[n - 1 - k],
                 [_halving_pairs(slots, k) for slots in slots_of_copy])
                for k in range(n)]

    def build_ops(self, static_flags_one=False):
        spec = self.spec
        n = spec.n
        big_n = 1 << n
        ops = []
        for flag, angle, onehot, pool_a, pool_b in self.copies:
            ops.append(Gate(GateKind.X, (onehot[0],)))
        # Inverse swap network on the one-hot block: slot 0 -> slot j.
        # One-hot networks draw on pool B, angle networks on pool A.
        onehot_cols = self._network_columns([c[2] for c in self.copies])
        for ctrl, per_copy in reversed(onehot_cols):
            for (flag, angle, onehot, pool_a, pool_b), pairs in zip(
                    self.copies, per_copy):
                ops.append(parallel_cswap_clean(
                    control=ctrl, pairs=pairs, pool=pool_b[: 2 * len(pairs)]))
        # V: rotate angle slot k by theta^(k) under flag and one-hot controls.
        for r, (flag, angle, onehot, pool_a, pool_b) in enumerate(self.copies):
            if static_flags_one:
                for k in range(big_n):
                    ops.extend(controlled_ry_gates(
                        self.thetas[k][r], (onehot[k],), angle[k]))
            else:
                fan = Gate(GateKind.FANOUT_CNOT, pool_b, ((flag, True),))
                ops.append(fan)
                # Slot by slot: slot k's ops touch only slot k's qubits, so
                # the counter, which sees only each qubit's use order,
                # schedules the N slots in parallel all the same, while the
                # simulator branches on one angle slot at a time instead of
                # on all N at once.  Each Toffoli's scratch qubit is
                # pool_a[k].
                for k in range(big_n):
                    half, fix = canonical_ry_halves(self.thetas[k][r])
                    toffoli = and_toffoli(pool_b[k], onehot[k], angle[k])
                    ops += [toffoli,
                            Gate(GateKind.RY, (angle[k],), (), -half),
                            toffoli,
                            Gate(GateKind.RY, (angle[k],), (), half)]
                    if fix:
                        ops.append(Gate(GateKind.CZ, (pool_b[k], onehot[k])))
                ops.append(fan)
        # Final parallel swap networks: angle block uses pool A, one-hot pool B.
        angle_cols = self._network_columns([c[1] for c in self.copies])
        onehot_cols = self._network_columns([c[2] for c in self.copies])
        for (ctrl, angle_per_copy), (_, onehot_per_copy) in zip(angle_cols,
                                                                onehot_cols):
            for (flag, angle, onehot, pool_a, pool_b), ap, op_ in zip(
                    self.copies, angle_per_copy, onehot_per_copy):
                ops.append(parallel_cswap_clean(
                    control=ctrl, pairs=ap, pool=pool_a[: 2 * len(ap)]))
                ops.append(parallel_cswap_clean(
                    control=ctrl, pairs=op_, pool=pool_b[: 2 * len(op_)]))
        for flag, angle, onehot, pool_a, pool_b in self.copies:
            ops.append(Gate(GateKind.X, (onehot[0],)))
        return ops


def build_loadf(spec: LoadSpec, thetas):
    """Standalone LOADF circuit; address register first, then per-copy blocks."""
    if spec.model is not QramModel.FLAGS:
        raise ConfigurationError("spec.model must be flags")
    b = CircuitBuilder()
    addr = b.allocate("addr", spec.n)
    plan = FlagLoad(b, addr.qubits, spec, thetas)
    b.begin_stage("loadf")
    b.extend(plan.build_ops())
    return b.build()
