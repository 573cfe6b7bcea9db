"""Block-encoding assembly: parameter selection and end-to-end extraction."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc import decomp, qram
from blockenc.circuit import Circuit, Gate, GateKind, Macro, count_resources
from blockenc.encoding import (
    BlockEncodingConfig,
    Method,
    Variant,
    build_block_encoding,
    build_controlled_block_encoding,
    build_symmetric_block_encoding,
    select_parameters,
)
from blockenc.qram import (
    ConfigurationError,
    LoadSpec,
    QramModel,
    build_load_bb,
    build_load_ss,
    build_loadf,
)
from blockenc.simulator import extract_block, spectral_norm
from blockenc.stateprep import build_sp_fixed, build_sp_prerotated

SS, BB = QramModel.SELECT_SWAP, QramModel.BUCKET_BRIGADE


def test_select_parameters_fixed_example():
    params = select_parameters(0.01, 10.0, 4, Method.FIXED_PRECISION)
    assert params.t == 15
    assert params.r_y == math.ceil(3 * math.log2(1000) + 3 * 2 + 9)


def test_select_parameters_prerotated_example():
    params = select_parameters(0.01, 10.0, 4, Method.PRE_ROTATED)
    assert params.r_y == 42
    assert params.t is None


def test_select_parameters_table1_point():
    params = select_parameters(0.01, 993.8, 4, Method.PRE_ROTATED)
    assert params.r_y == 62


def test_select_parameters_domain():
    with pytest.raises(ValueError):
        select_parameters(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        select_parameters(0.1, 0.0, 2)


def test_parameter_soundness_bounds():
    """Chosen (t, delta) meet the analytic error budget (criterion 6)."""
    for epsilon in (1e-1, 1e-2, 1e-3):
        for alpha in (1.0, 10.0, 1000.0):
            for big_n in (4, 16):
                n = big_n.bit_length() - 1
                p = select_parameters(epsilon, alpha, n, Method.FIXED_PRECISION)
                total = (4 * p.t * n * p.delta_decomp * alpha
                         + math.pi * n * 2.0 ** -p.t * alpha)
                assert total <= epsilon + 1e-12
                p = select_parameters(epsilon, alpha, n, Method.PRE_ROTATED)
                assert 4 * n * p.delta_decomp * alpha <= epsilon + 1e-12


def test_prerotated_requires_flags_model():
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED,
                              qram=QramModel.SELECT_SWAP, lam=1)
    with pytest.raises(ConfigurationError):
        build_block_encoding(np.eye(2), cfg)


def test_identity_block_fixed():
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=0, t=8)
    res = build_block_encoding(np.eye(2), cfg)
    ext = extract_block(res.circuit, res.in_qubits)
    assert np.abs(ext.block - np.eye(2) / math.sqrt(2)).max() < 4e-2


def test_random_4x4_prerotated_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED,
                              qram=QramModel.FLAGS, lam=2)
    res = build_block_encoding(a, cfg)
    ext = extract_block(res.circuit, res.in_qubits)
    assert spectral_norm(a - res.alpha * ext.block) <= 1e-9
    assert ext.unitary_witness < 1e-10


def test_random_4x4_fixed_ss_bound():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=1, t=8)
    res = build_block_encoding(a, cfg)
    ext = extract_block(res.circuit, res.in_qubits)
    err = spectral_norm(a - res.alpha * ext.block)
    assert err <= math.pi * 2 * 2.0 ** -8 * res.alpha


def test_prerotated_n3_support_guard():
    """LOADF rotates its angle slots one at a time, so the simulator never
    holds every slot's branch at once: n = 3 peaks at 2,048 entries
    (emitting each rotation layer across all slots gives 163,840)."""
    a = np.random.default_rng(11).standard_normal((8, 8))
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED,
                              qram=QramModel.FLAGS, lam=3)
    res = build_block_encoding(a, cfg)
    ext = extract_block(res.circuit, res.in_qubits)
    assert ext.peak_support <= 4096
    assert spectral_norm(a - res.alpha * ext.block) <= 1e-9 * res.alpha


def test_matrix_element_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2))
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED,
                              qram=QramModel.FLAGS, lam=1)
    res = build_block_encoding(a, cfg)
    ext = extract_block(res.circuit, res.in_qubits)
    for j in range(2):
        for k in range(2):
            assert abs(ext.block[j, k] * res.alpha - a[j, k]) < 1e-9


def controlled_block(res, control_bits):
    """The block with the controls held at ``control_bits``: one batched
    extraction of the circuit conjugated by X on the controls set to 1."""
    flips = tuple(Gate(GateKind.X, (q,))
                  for q, bit in zip(res.control_qubits, control_bits) if bit)
    c = res.circuit
    circuit = Circuit(c.registers, flips + c.ops + flips, c.total_qubits)
    return extract_block(circuit, res.in_qubits).block


def test_controlled_block_encoding():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=1, t=8,
                              variant=Variant.CONTROLLED)
    res = build_controlled_block_encoding(a, cfg)
    off = controlled_block(res, (0,))
    assert np.abs(off - np.eye(4)).max() < 1e-10
    on = controlled_block(res, (1,))
    assert spectral_norm(a - res.alpha * on) <= math.pi * 2 * 2.0 ** -8 * res.alpha


# (1, 0), (2, 1) and (3, 2) select with one bit; the single-entry matrix
# gives that select all-zero rows.
@pytest.mark.parametrize("n, lam", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
                                    (3, 1), (3, 2)])
def test_controlled_counts_independent_of_values(n, lam):
    side = 1 << n
    rng = np.random.default_rng(n)
    uniform = rng.uniform(5, 105, (side, side))
    zero_row = uniform.copy()
    zero_row[side // 2] = 0.0
    single = np.zeros((side, side))
    single[0, 0] = 1.0
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=lam, t=10,
                              variant=Variant.CONTROLLED)
    counts = {
        count_resources(build_block_encoding(a, cfg).circuit,
                        ry_cost=30).as_tuple()
        for a in (uniform, zero_row,
                  uniform * rng.choice((-1.0, 1.0), uniform.shape), single)}
    assert len(counts) == 1, counts


# (shape, config) pairs at n <= 3 whose counts must not depend on the
# matrix values.
_VALUE_GRID = (
    [((1 << n, 1 << n), BlockEncodingConfig(qram=model, lam=lam, t=4,
                                            variant=variant))
     for n in (1, 2, 3) for model in (SS, BB) for lam in range(n + 1)
     for variant in (Variant.STANDARD, Variant.CONTROLLED)]
    + [((1 << n, 1 << n), BlockEncodingConfig(
        method=Method.PRE_ROTATED, qram=QramModel.FLAGS, lam=n))
       for n in (1, 2, 3)]
    + [(shape, BlockEncodingConfig(qram=model, lam=0, t=4,
                                   variant=Variant.SYMMETRIC))
       for shape in ((2, 1), (4, 3)) for model in (SS, BB)])
_REFERENCE_COUNTS = {}


def _value_counts(matrix, cfg):
    return count_resources(build_block_encoding(matrix, cfg).circuit,
                           ry_cost=30)


def _matrix_of_kind(kind, shape, rng):
    """A nonzero matrix of ``shape``: random, with a zero row, sign-flipped,
    sparse, or with a single nonzero entry."""
    positive = rng.uniform(5, 105, shape)
    if kind == "random":
        return rng.standard_normal(shape)
    if kind == "zero_row":
        positive[rng.integers(shape[0])] = 0.0
        return positive
    if kind == "sign_flipped":
        return positive * rng.choice((-1.0, 1.0), shape)
    out = np.zeros(shape)
    if kind == "sparse":
        out = positive * (rng.random(shape) < 0.3)
    out.flat[rng.integers(out.size)] = rng.standard_normal()
    return out


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(_VALUE_GRID) - 1),
       kind=st.sampled_from(("random", "zero_row", "sign_flipped", "sparse",
                             "single")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_counts_independent_of_values(index, kind, seed):
    shape, cfg = _VALUE_GRID[index]
    matrix = _matrix_of_kind(kind, shape, np.random.default_rng(seed))
    if index not in _REFERENCE_COUNTS:
        reference = np.random.default_rng(0).uniform(5, 105, shape)
        _REFERENCE_COUNTS[index] = _value_counts(reference, cfg)
    assert _value_counts(matrix, cfg) == _REFERENCE_COUNTS[index]


def _every_generator_circuit():
    """Every generator at n <= 3: the block-encoding variants and the
    standalone LOAD, LOADF and state-preparation builders."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        side = 1 << n
        matrix = rng.uniform(5, 105, (side, side))
        for model in (SS, BB):
            for lam in range(n + 1):
                for variant in Variant:
                    cfg = BlockEncodingConfig(qram=model, lam=lam, t=1,
                                              variant=variant)
                    yield build_block_encoding(matrix, cfg).circuit
                rows = rng.integers(0, 2, (side, 2))
                yield build_load_ss(LoadSpec(n, 2, lam, SS, rows))
                yield build_load_bb(LoadSpec(n, 2, lam, BB, rows))
        yield build_block_encoding(matrix, BlockEncodingConfig(
            method=Method.PRE_ROTATED, qram=QramModel.FLAGS, lam=n)).circuit
        yield build_loadf(LoadSpec(n, 2, n, QramModel.FLAGS),
                          rng.uniform(0, 3, (side, 2)))
        yield build_sp_fixed(matrix[0], 1)
        yield build_sp_prerotated(matrix[0])


def test_counted_qubits_are_the_register_total():
    for circuit in _every_generator_circuit():
        assert count_resources(circuit).qubits == circuit.total_qubits


def test_symmetric_structure_1x1():
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=0, t=8,
                              variant=Variant.SYMMETRIC)
    res = build_symmetric_block_encoding(np.array([[1.0]]), cfg)
    ext = extract_block(res.circuit, res.in_qubits)
    block = res.alpha * ext.block
    assert abs(block[0, 1] - 1.0) < 4e-2
    assert abs(block[1, 0] - 1.0) < 4e-2
    assert abs(block[0, 0]) < 4e-2
    assert abs(block[1, 1]) < 4e-2


def test_symmetric_random_2x2():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2))
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=0, t=8,
                              variant=Variant.SYMMETRIC)
    res = build_symmetric_block_encoding(a, cfg)
    assert abs(res.alpha - np.linalg.norm(a)) < 1e-12  # ||A||_F, not 2||A||_F
    ext = extract_block(res.circuit, res.in_qubits)
    abar = np.zeros((4, 4))
    abar[:2, 2:] = a
    abar[2:, :2] = a.T
    tol = math.pi * res.n * 2.0 ** -8 * res.alpha
    assert spectral_norm(abar - res.alpha * ext.block[:4, :4]) <= tol


def test_output_norm_unitarity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2))
    for cfg in (BlockEncodingConfig(method=Method.FIXED_PRECISION,
                                    qram=QramModel.SELECT_SWAP, lam=1, t=6),
                BlockEncodingConfig(method=Method.PRE_ROTATED,
                                    qram=QramModel.FLAGS, lam=1)):
        res = build_block_encoding(a, cfg)
        ext = extract_block(res.circuit, res.in_qubits)
        assert ext.unitary_witness < 1e-10


def test_padding_report():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 5))
    cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                              qram=QramModel.SELECT_SWAP, lam=0, t=4)
    res = build_block_encoding(a, cfg)
    assert res.original_shape == (3, 5)
    assert res.padded.shape == (8, 8)


@pytest.fixture
def load_builds(monkeypatch):
    """Count ``build_ops`` calls per LOAD plan object."""
    calls = {}
    for cls in (qram.SelectSwapLoad, qram.BucketBrigadeLoad):
        def counted(self, _original=cls.build_ops):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return _original(self)
        monkeypatch.setattr(cls, "build_ops", counted)
    return calls


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("model", [QramModel.SELECT_SWAP,
                                   QramModel.BUCKET_BRIGADE])
def test_each_load_is_built_once(load_builds, variant, model):
    matrix = np.arange(1.0, 17.0).reshape(4, 4)
    cfg = BlockEncodingConfig(qram=model, lam=1, t=3, variant=variant)
    build_block_encoding(matrix, cfg)
    assert list(load_builds.values()) == [1]


def test_prerotated_macros_keep_recipes_not_gates(monkeypatch):
    """Building and counting the pre-rotated n = 5 encoding holds no macro
    expansion and runs no recipe: every macro declares its qubit roles."""
    runs = [0]
    for name in ("_cswap_clean_gates", "_and_toffoli_gates",
                 "_unary_select_gates", "_unary_step_gates"):
        def counting(*args, _recipe=getattr(decomp, name)):
            runs[0] += 1
            return _recipe(*args)
        monkeypatch.setattr(decomp, name, counting)
    matrix = np.random.default_rng(0).uniform(5, 105, (32, 32))
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED, qram=QramModel.FLAGS,
                              lam=5)
    tracemalloc.start()
    try:
        circuit = build_block_encoding(matrix, cfg).circuit
        count_resources(circuit, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    macros = [op for op in circuit.ops if isinstance(op, Macro)]
    assert any(op.inverted for op in macros)
    assert runs[0] == 0
    # Peak with every expansion stored (and frozenset roles): 9.3 MB; with
    # recipes: 4.2 MB (Python 3.11).
    assert peak < 6.5e6


def test_largest_t_encodes_the_matrix():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = build_block_encoding(a, BlockEncodingConfig(t=1023))
    block = extract_block(res.circuit, res.in_qubits).block
    assert np.abs(res.alpha * block - a).max() < 1e-12
    with pytest.raises(ConfigurationError, match="<= 1023"):
        build_block_encoding(a, BlockEncodingConfig(t=1024))
