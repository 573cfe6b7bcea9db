"""Block-encoding assembly: parameter selection, standard/controlled/symmetric
variants.

A block-encoding is the product of a plain state-preparation leg (the row-norm
state), a register swap, and the adjoint of a controlled-state-preparation leg
(the row states); the top-left block of the resulting unitary equals A/alpha
with alpha the Frobenius norm.  The block indices live on the bottom n-qubit
register; every other qubit belongs to the <0| projector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .angle_tree import (
    build_tree,
    matrix_trees,
    pad_to_power_of_two,
    quantized_tree_bits,
    zero_tree,
)
from .circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    Macro,
    adjoint_ops,
    stored_gates,
)
from .decomp import parallel_cswap_clean
from .qram import ConfigurationError, LoadSpec, QramModel, load_plan
from .stateprep import (
    csp_prerotated_ops,
    fixed_data_width,
    fixed_init_ops,
    fixed_rows_for_trees,
    fixed_slots,
    sp_fixed_ops,
    sp_prerotated_ops,
)


class Method(str, Enum):
    FIXED_PRECISION = "fixed"
    PRE_ROTATED = "prerotated"


class Variant(str, Enum):
    STANDARD = "standard"
    CONTROLLED = "controlled"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class BlockEncodingConfig:
    method: Method = Method.FIXED_PRECISION
    qram: QramModel = QramModel.SELECT_SWAP
    lam: int = 0
    epsilon: float = 0.01
    variant: Variant = Variant.STANDARD
    t: int | None = None

    def validate(self, n):
        if self.t is not None and self.t < 1:
            raise ConfigurationError("t must be >= 1")
        if self.method is Method.PRE_ROTATED:
            if self.qram is not QramModel.FLAGS or self.lam != n:
                raise ConfigurationError(
                    "the pre-rotated method is only available with the flags "
                    "access model and lambda = n")
        else:
            if self.qram is QramModel.FLAGS:
                raise ConfigurationError(
                    "the flags access model is only used by the pre-rotated "
                    "method; bit rows are loaded with the ss or bb model")
            if not 0 <= self.lam <= n:
                raise ConfigurationError("lambda must lie in [0, n]")


@dataclass(frozen=True)
class EncodingParams:
    """epsilon-driven parameter choice (leading terms, O(.) dropped)."""

    t: int | None
    r_y: int
    delta_decomp: float
    alpha: float


def select_parameters(epsilon, alpha, n,
                      method=Method.FIXED_PRECISION) -> EncodingParams:
    if not (0 < epsilon < math.inf and 0 < alpha < math.inf):
        raise ValueError("epsilon and alpha must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    la = math.log2(alpha / epsilon)
    ln = math.log2(n) if n > 1 else 0.0
    if method is Method.FIXED_PRECISION:
        t = math.ceil(la + math.log2(math.pi) + ln + 1)
        delta = epsilon / (8 * t * alpha * n)
        r_y = math.ceil(3 * la + 3 * ln + 9)
        return EncodingParams(t, r_y, delta, alpha)
    delta = epsilon / (4 * alpha * n)
    r_y = math.ceil(3 * la + 3 * ln + 6)
    return EncodingParams(None, r_y, delta, alpha)


@dataclass(frozen=True)
class BlockEncodingResult:
    circuit: Circuit
    alpha: float
    n: int
    in_qubits: tuple
    config: BlockEncodingConfig
    params: EncodingParams
    original_shape: tuple
    padded_shape: tuple
    control_qubits: tuple = ()


def _prepare_matrix(a, square=True):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    original = tuple(a.shape)
    padded = pad_to_power_of_two(a)
    if square and padded.shape[0] != padded.shape[1]:
        side = max(padded.shape)
        squared = np.zeros((side, side))
        squared[: padded.shape[0], : padded.shape[1]] = padded
        padded = squared
    return padded, original, tuple(padded.shape)


def _setup(a, cfg, variant):
    """Pad ``a``, check ``cfg`` against it and choose the parameters.

    The symmetric variant pads to a power-of-two M x N with M >= N and
    encodes on n = log2(M) + 1 qubits; the others pad to a square of side 2^n.
    Returns the padded matrix, n, t and the ``BlockEncodingResult`` with all
    but its circuit and block qubits filled in.
    """
    if variant is not Variant.STANDARD \
            and cfg.method is not Method.FIXED_PRECISION:
        raise ConfigurationError(f"the {variant.value} variant is implemented "
                                 "for the fixed-precision method only")
    symmetric = variant is Variant.SYMMETRIC
    padded, original, shape = _prepare_matrix(a, square=not symmetric)
    if shape[0] < shape[1]:
        raise ConfigurationError(
            "symmetrized encoding assumes M >= N; transpose the input")
    n = shape[0].bit_length() - (0 if symmetric else 1)
    if n < 1:
        raise ConfigurationError("need a matrix of at least 2x2 after padding")
    cfg.validate(n)
    alpha = float(np.linalg.norm(padded))
    if alpha == 0:
        raise ConfigurationError("matrix is all zero")
    params = select_parameters(cfg.epsilon, alpha, n, cfg.method)
    t = cfg.t if cfg.t is not None else params.t
    return padded, n, t, partial(
        BlockEncodingResult, alpha=alpha, n=n, config=cfg, params=params,
        original_shape=original, padded_shape=shape)


def _register_swap(builder, data, control):
    builder.begin_stage("register_swap")
    for qa, qb in zip(data.qubits, control.qubits):
        builder.gate(GateKind.SWAP, (qa, qb))


class _FixedLegs:
    """Shared machinery for the fixed-precision legs of a block-encoding.

    The LOAD and state-preparation ops are built once; every leg that needs
    them, and their adjoints, reuses ``load_ops`` and ``sp_ops``.
    """

    def __init__(self, builder, data, dblock, control, row_trees, phi_tree,
                 n, t, cfg):
        rows = fixed_rows_for_trees(row_trees, t)
        spec = LoadSpec(n=n, data_width=len(dblock), lam=cfg.lam,
                        model=cfg.qram, rows=tuple(rows))
        self.load_ops = load_plan(builder, control, dblock, spec).build_ops()
        a_slots, s_block = fixed_slots(dblock, n, t)
        self.sp_ops = sp_fixed_ops(data, a_slots, s_block, n, t)
        if phi_tree is not None:
            bits, signs = quantized_tree_bits(phi_tree, t)
            self.phi_init = fixed_init_ops(a_slots, s_block, bits, signs)
        else:
            self.phi_init = None


def build_block_encoding(a, cfg: BlockEncodingConfig) -> BlockEncodingResult:
    """U_A for ``cfg.variant``; the block lives on the ``control`` register.

    This is the one place that dispatches on the variant.
    """
    if cfg.variant is Variant.CONTROLLED:
        return build_controlled_block_encoding(a, cfg)
    if cfg.variant is Variant.SYMMETRIC:
        return build_symmetric_block_encoding(a, cfg)
    padded, n, t, result = _setup(a, cfg, Variant.STANDARD)
    row_trees, phi_tree, _ = matrix_trees(padded)
    b = CircuitBuilder()
    data = b.allocate("data", n)
    if cfg.method is Method.FIXED_PRECISION:
        dblock = b.allocate("dblock", fixed_data_width(n, t))
        control = b.allocate("control", n)
        legs = _FixedLegs(b, data.qubits, dblock.qubits, control.qubits,
                          row_trees, phi_tree, n, t, cfg)
        b.begin_stage("leg1_sp_phi")
        b.extend(legs.phi_init + legs.sp_ops + legs.phi_init)
        _register_swap(b, data, control)
        b.begin_stage("leg2_load")
        b.extend(legs.load_ops)
        b.begin_stage("leg2_sp_dagger")
        b.extend(adjoint_ops(legs.sp_ops))
        b.begin_stage("leg2_load_dagger")
        b.extend(adjoint_ops(legs.load_ops))
    else:
        big_n = 1 << n
        angle = b.allocate("angle", big_n - 1)
        flag = b.allocate("flag", big_n - 1)
        control = b.allocate("control", n)
        leg2, plan = csp_prerotated_ops(b, data.qubits, angle.qubits,
                                        flag.qubits, control.qubits, row_trees)
        slots = {r: angle.qubits[r - 1] for r in range(1, big_n)}
        f_slots = {r: flag.qubits[r - 1] for r in range(1, big_n)}
        pa, pb = plan.copies[0][3], plan.copies[0][4]
        b.begin_stage("leg1_sp_phi")
        b.extend(sp_prerotated_ops(data.qubits, slots, f_slots, pa, pb,
                                   phi_tree))
        _register_swap(b, data, control)
        b.begin_stage("leg2_csp_dagger")
        b.extend(adjoint_ops(leg2))
    return result(circuit=b.build(), in_qubits=control.qubits)


def build_controlled_block_encoding(a, cfg: BlockEncodingConfig) -> BlockEncodingResult:
    """CU_A: identity unless the ``ctrl`` qubit is |1>.

    A D-qubit staging register receives the loaded (or X-written) angle data;
    a phase-correct controlled-swap layer moves it into the block the state
    preparation reads, so control |0> leaves the all-zero angle tree in place
    and the whole circuit acts as the identity.
    """
    padded, n, t, result = _setup(a, cfg, Variant.CONTROLLED)
    row_trees, phi_tree, _ = matrix_trees(padded)
    d = fixed_data_width(n, t)

    b = CircuitBuilder()
    ctrl = b.allocate("ctrl", 1)
    data = b.allocate("data", n)
    dblock = b.allocate("dblock", d)
    stage = b.allocate("stage", d)
    control = b.allocate("control", n)
    pool = b.allocate("cswap_pool", 2 * max(d, n))
    legs = _FixedLegs(b, data.qubits, dblock.qubits, control.qubits,
                      row_trees, phi_tree, n, t, cfg)
    staged_cswap = parallel_cswap_clean(
        control=ctrl[0], pairs=tuple(zip(dblock.qubits, stage.qubits)),
        ancillas=pool.qubits[: 2 * d])

    stage_init = fixed_rows_for_trees([phi_tree], t)[0]
    stage_x = [Gate(GateKind.X, (stage[i],)) for i, bit in enumerate(stage_init)
               if bit]
    b.begin_stage("leg1_sp_phi")
    b.extend(stage_x)
    b.add(staged_cswap)
    b.extend(legs.sp_ops)
    b.add(staged_cswap)
    b.extend(stage_x)
    b.begin_stage("register_swap")
    b.add(parallel_cswap_clean(control=ctrl[0],
                               pairs=tuple(zip(data.qubits, control.qubits)),
                               ancillas=pool.qubits[2: 2 + 2 * n]))
    b.begin_stage("leg2")
    load_into_stage = _retarget_load(legs, stage.qubits, dblock.qubits)
    b.extend(load_into_stage)
    b.add(staged_cswap)
    b.extend(adjoint_ops(legs.sp_ops))
    b.add(staged_cswap)
    b.extend(adjoint_ops(load_into_stage))
    return result(circuit=b.build(), in_qubits=control.qubits,
                  control_qubits=ctrl.qubits)


def _retarget_load(legs, stage_qubits, dblock_qubits):
    """Rebuild the LOAD ops with the data register redirected to staging."""
    remap = dict(zip(dblock_qubits, stage_qubits))
    return [_remap_op(op, remap) for op in legs.load_ops]


def _remap_op(op, remap):
    if isinstance(op, Gate):
        return Gate(op.kind, tuple(remap.get(q, q) for q in op.targets),
                    tuple((remap.get(q, q), p) for q, p in op.controls),
                    op.angle)
    return Macro(op.kind, op.params, stored_gates,
                 (tuple(_remap_op(g, remap) for g in op.expansion),),
                 op.t_count, op.t_depth, op.extra_ancillas,
                 tuple(remap.get(q, q) for q in op.footprint))


def symmetric_family_trees(a):
    """Controlled-state-preparation trees for the symmetrized encoding.

    With M = 2^m >= N and ell = m + 1, control value i < M selects the i-th
    row state on indices M..M+N-1; M <= i < M+N selects the row-norm state on
    indices 0..M-1; larger i select the all-zero tree.
    """
    a = np.asarray(a, dtype=float)
    m_rows, n_cols = a.shape
    ell = (m_rows.bit_length() - 1) + 1
    dim = 1 << ell
    row_norms = np.linalg.norm(a, axis=1)
    trees = []
    for i in range(dim):
        vec = np.zeros(dim)
        if i < m_rows:
            if np.any(a[i]):
                vec[m_rows: m_rows + n_cols] = a[i]
                trees.append(build_tree(vec, ell))
            else:
                trees.append(zero_tree(ell))
        elif i < m_rows + n_cols:
            vec[:m_rows] = row_norms
            trees.append(build_tree(vec, ell))
        else:
            trees.append(zero_tree(ell))
    return trees, ell


def build_symmetric_block_encoding(a, cfg: BlockEncodingConfig) -> BlockEncodingResult:
    """Block-encode the off-diagonal symmetrized matrix [[0, A], [A^T, 0]].

    Both legs are the same controlled-state preparation over the symmetrized
    state family; normalization stays ||A||_F (not 2||A||_F).
    """
    padded, ell, t, result = _setup(a, cfg, Variant.SYMMETRIC)
    trees, _ = symmetric_family_trees(padded)
    b = CircuitBuilder()
    data = b.allocate("data", ell)
    dblock = b.allocate("dblock", fixed_data_width(ell, t))
    control = b.allocate("control", ell)
    legs = _FixedLegs(b, data.qubits, dblock.qubits, control.qubits,
                      trees, None, ell, t, cfg)
    csp = legs.load_ops + legs.sp_ops + adjoint_ops(legs.load_ops)
    b.begin_stage("csp")
    b.extend(csp)
    _register_swap(b, data, control)
    b.begin_stage("csp_dagger")
    b.extend(adjoint_ops(csp))
    return result(circuit=b.build(), in_qubits=control.qubits)
