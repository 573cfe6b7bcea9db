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
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .angle_tree import matrix_trees, pad_to_power_of_two
from .circuit import Circuit, CircuitBuilder, GateKind, adjoint_ops
from .decomp import parallel_cswap_clean
from .qram import ConfigurationError, LoadSpec, QramModel, load_plan
from .stateprep import (
    csp_prerotated_ops,
    fixed_data_width,
    fixed_init_ops,
    fixed_rows_for_trees,
    sp_fixed_ops,
    sp_prerotated_ops,
)


class Method(str, Enum):
    FIXED_PRECISION = "fixed"
    PRE_ROTATED = "prerotated"


MAX_T = 1023    # the rounding steps of t-bit angles, up to 2^t, are floats


class Variant(str, Enum):
    STANDARD = "standard"
    CONTROLLED = "controlled"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class BlockEncodingConfig:
    """``qram`` and ``lam`` at ``None`` mean the method's: select-swap with
    lambda = 0 for fixed precision, flags with lambda = n for pre-rotated."""

    method: Method = Method.FIXED_PRECISION
    qram: QramModel | None = None
    lam: int | None = None
    epsilon: float = 0.01
    variant: Variant = Variant.STANDARD
    t: int | None = None

    def resolve(self, n):
        """This config with the method's QRAM model and lambda filled in,
        checked against n address bits."""
        if self.t is not None and not 1 <= self.t <= MAX_T:
            raise ConfigurationError(f"t must be >= 1 and <= {MAX_T}")
        prerotated = self.method is Method.PRE_ROTATED
        qram, lam = (QramModel.FLAGS, n) if prerotated \
            else (QramModel.SELECT_SWAP, 0)
        cfg = replace(self, qram=self.qram or qram,
                      lam=lam if self.lam is None else self.lam)
        if prerotated and (cfg.qram is not QramModel.FLAGS or cfg.lam != n):
            raise ConfigurationError(
                "the pre-rotated method is only available with the flags "
                "access model and lambda = n")
        if not prerotated and cfg.qram is QramModel.FLAGS:
            raise ConfigurationError(
                "the flags access model is only used by the pre-rotated "
                "method; bit rows are loaded with the ss or bb model")
        if not 0 <= cfg.lam <= n:
            raise ConfigurationError("lambda must lie in [0, n]")
        return cfg


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
    if alpha / epsilon == math.inf:
        raise ValueError("alpha / epsilon overflows a float")
    la = math.log2(alpha / epsilon)
    ln = math.log2(n) if n > 1 else 0.0
    if method is Method.FIXED_PRECISION:
        t = math.ceil(la + math.log2(math.pi) + ln + 1)
        # No t below 1 builds (``chosen_t`` says so), and none has a delta.
        delta = epsilon / (8 * t * alpha * n) if t >= 1 else math.nan
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
    t: int | None           # the chosen angle precision (``chosen_t``)
    original_shape: tuple
    padded: np.ndarray      # the zero-padded matrix the circuit encodes
    control_qubits: tuple = ()


def chosen_t(cfg, params):
    """The angle precision t: ``cfg.t`` if set, else the one ``params`` chose.

    Raises ``ConfigurationError`` when the chosen t lies outside [1, MAX_T].
    """
    t = cfg.t if cfg.t is not None else params.t
    if t is not None and not 1 <= t <= MAX_T:
        raise ConfigurationError(
            f"epsilon {cfg.epsilon:g} chooses t = {t} for alpha "
            f"{params.alpha:g}; t must be >= 1 and <= {MAX_T}: set t or "
            "another epsilon")
    return t


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
    return padded, original


def _setup(a, cfg, variant):
    """Pad ``a``, resolve ``cfg`` against it and choose the parameters.

    The symmetric variant pads to a power-of-two M x N with M >= N and
    encodes on n = log2(M) + 1 qubits; the others pad to a square of side 2^n.
    Returns the scaled rows and row-norm vector of ``matrix_trees``, n, t,
    the resolved config and the ``BlockEncodingResult`` with all but its
    circuit and block qubits filled in.
    """
    if variant is not Variant.STANDARD \
            and cfg.method is not Method.FIXED_PRECISION:
        raise ConfigurationError(f"the {variant.value} variant is implemented "
                                 "for the fixed-precision method only")
    symmetric = variant is Variant.SYMMETRIC
    padded, original = _prepare_matrix(a, square=not symmetric)
    shape = padded.shape
    if shape[0] < shape[1]:
        raise ConfigurationError(
            "symmetrized encoding assumes M >= N; transpose the input")
    n = shape[0].bit_length() - (0 if symmetric else 1)
    if n < 1:
        raise ConfigurationError("need a matrix of at least 2x2 after padding")
    cfg = cfg.resolve(n)
    rows, phi, alpha = matrix_trees(padded)
    params = select_parameters(cfg.epsilon, alpha, n, cfg.method)
    t = chosen_t(cfg, params)
    return rows, phi, n, t, cfg, partial(
        BlockEncodingResult, alpha=alpha, n=n, config=cfg, params=params,
        t=t, original_shape=original, padded=padded)


def _register_swap(builder, data, control):
    builder.begin_stage("register_swap")
    for qa, qb in zip(data.qubits, control.qubits):
        builder.gate(GateKind.SWAP, (qa, qb))


class _FixedLegs:
    """Shared machinery for the fixed-precision legs of a block-encoding.

    The LOAD and state-preparation ops are built once; every leg that needs
    them, and their adjoints, reuses ``load_ops`` and ``sp_ops``.  The LOAD
    and the row-norm X layer ``phi_init`` write ``load_block`` (default
    ``dblock``, the block the state preparation reads).
    """

    def __init__(self, builder, data, dblock, control, vectors, phi, n, t,
                 cfg, load_block=None):
        load_block = load_block or dblock
        spec = LoadSpec(n=n, data_width=len(dblock), lam=cfg.lam,
                        model=cfg.qram, rows=fixed_rows_for_trees(vectors, t))
        self.load_ops = load_plan(builder, control, load_block,
                                  spec).build_ops()
        self.sp_ops = sp_fixed_ops(data, dblock, t)
        if phi is not None:
            self.phi_init = fixed_init_ops(load_block,
                                           fixed_rows_for_trees(phi, t)[0])


def build_block_encoding(a, cfg: BlockEncodingConfig) -> BlockEncodingResult:
    """U_A for ``cfg.variant``; the block lives on the ``control`` register.

    This is the one place that dispatches on the variant.
    """
    if cfg.variant is Variant.CONTROLLED:
        return build_controlled_block_encoding(a, cfg)
    if cfg.variant is Variant.SYMMETRIC:
        return build_symmetric_block_encoding(a, cfg)
    rows, phi, n, t, cfg, result = _setup(a, cfg, Variant.STANDARD)
    b = CircuitBuilder()
    data = b.allocate("data", n)
    if cfg.method is Method.FIXED_PRECISION:
        dblock = b.allocate("dblock", fixed_data_width(n, t))
        control = b.allocate("control", n)
        legs = _FixedLegs(b, data.qubits, dblock.qubits, control.qubits,
                          rows, phi, n, t, cfg)
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
        angle = b.allocate("angle", (1 << n) - 1).qubits
        flag = b.allocate("flag", (1 << n) - 1).qubits
        control = b.allocate("control", n)
        leg2, pools = csp_prerotated_ops(b, data.qubits, angle, flag,
                                         control.qubits, rows)
        b.begin_stage("leg1_sp_phi")
        b.extend(sp_prerotated_ops(data.qubits, angle, flag, *pools, phi))
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
    rows, phi, n, t, cfg, result = _setup(a, cfg, Variant.CONTROLLED)
    d = fixed_data_width(n, t)

    b = CircuitBuilder()
    ctrl = b.allocate("ctrl", 1)
    data = b.allocate("data", n)
    dblock = b.allocate("dblock", d)
    stage = b.allocate("stage", d)
    control = b.allocate("control", n)
    pool = b.allocate("cswap_pool", 2 * max(d, n))
    legs = _FixedLegs(b, data.qubits, dblock.qubits, control.qubits,
                      rows, phi, n, t, cfg, load_block=stage.qubits)
    staged_cswap = parallel_cswap_clean(
        control=ctrl[0], pairs=tuple(zip(dblock.qubits, stage.qubits)),
        pool=pool.qubits[: 2 * d])

    b.begin_stage("leg1_sp_phi")
    b.extend(legs.phi_init)
    b.add(staged_cswap)
    b.extend(legs.sp_ops)
    b.add(staged_cswap)
    b.extend(legs.phi_init)
    b.begin_stage("register_swap")
    b.add(parallel_cswap_clean(control=ctrl[0],
                               pairs=tuple(zip(data.qubits, control.qubits)),
                               pool=pool.qubits[2: 2 + 2 * n]))
    b.begin_stage("leg2")
    b.extend(legs.load_ops)
    b.add(staged_cswap)
    b.extend(adjoint_ops(legs.sp_ops))
    b.add(staged_cswap)
    b.extend(adjoint_ops(legs.load_ops))
    return result(circuit=b.build(), in_qubits=control.qubits,
                  control_qubits=ctrl.qubits)


def build_symmetric_block_encoding(a, cfg: BlockEncodingConfig) -> BlockEncodingResult:
    """Block-encode the off-diagonal symmetrized matrix [[0, A], [A^T, 0]].

    Both legs are the same controlled-state preparation over the symmetrized
    state family; normalization stays ||A||_F (not 2||A||_F).
    """
    rows, phi, ell, t, cfg, result = _setup(a, cfg, Variant.SYMMETRIC)
    # Control value i < M selects row i on indices M..M+N-1, M <= i < M+N
    # the row-norm state on indices 0..M-1, and larger i the zero vector.
    m_rows, n_cols = rows.shape
    family = np.zeros((1 << ell, 1 << ell))
    family[:m_rows, m_rows: m_rows + n_cols] = rows
    family[m_rows: m_rows + n_cols, :m_rows] = phi
    b = CircuitBuilder()
    data = b.allocate("data", ell)
    dblock = b.allocate("dblock", fixed_data_width(ell, t))
    control = b.allocate("control", ell)
    legs = _FixedLegs(b, data.qubits, dblock.qubits, control.qubits,
                      family, None, ell, t, cfg)
    csp = legs.load_ops + legs.sp_ops + adjoint_ops(legs.load_ops)
    b.begin_stage("csp")
    b.extend(csp)
    _register_swap(b, data, control)
    b.begin_stage("csp_dagger")
    b.extend(adjoint_ops(csp))
    return result(circuit=b.build(), in_qubits=control.qubits)
