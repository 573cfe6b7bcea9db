"""Block-encoding assembly: parameter selection and end-to-end extraction."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockenc import decomp, qram
from blockenc.circuit import (
    Circuit,
    CliffordLayer,
    Compound,
    Gate,
    GateKind,
    Macro,
    RotationBlock,
    SwapNetwork,
    adjoint_ops,
    count_resources,
    count_resources_at,
    parse_circuit_text,
    write_circuit_text,
)
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
from blockenc.simulator import extract_block, run_circuit, spectral_norm
from blockenc.stateprep import build_sp_fixed, build_sp_prerotated
from test_circuit import flattened, op_line

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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_method_defaults_resolve_to_its_access_model(n):
    """Without a QRAM model or lambda, pre-rotated means flags with
    lambda = n and fixed precision select-swap with lambda = 0: each writes
    the text of its explicit config, and the result holds the resolved
    values."""
    matrix = np.random.default_rng(n).uniform(5, 105, (1 << n, 1 << n))
    for default, explicit in (
            (BlockEncodingConfig(method=Method.PRE_ROTATED),
             BlockEncodingConfig(method=Method.PRE_ROTATED,
                                 qram=QramModel.FLAGS, lam=n)),
            (BlockEncodingConfig(t=3),
             BlockEncodingConfig(qram=QramModel.SELECT_SWAP, lam=0, t=3))):
        res = build_block_encoding(matrix, default)
        want = build_block_encoding(matrix, explicit)
        assert write_circuit_text(res.circuit) == \
            write_circuit_text(want.circuit)
        assert res.config == want.config == explicit


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


# The controlled variant at n <= 2 with every lambda, select-swap, and with
# bucket-brigade at n = 1 (at n = 2, or at n = 1 with t = 8, it outgrows the
# support cap; its support grows about fourfold per bit of t).
_CONTROLLED_CONFIGS = (
    [(n, SS, lam) for n in (1, 2) for lam in range(n + 1)]
    + [(1, BB, lam) for lam in (0, 1)])


@settings(max_examples=20, deadline=None)
@given(index=st.integers(0, len(_CONTROLLED_CONFIGS) - 1),
       t=st.integers(1, 4),
       kind=st.sampled_from(("random", "zero_row", "sign_flipped", "sparse",
                             "single")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_controlled_variant_at_control_zero_is_the_identity(index, t, kind,
                                                            seed):
    n, model, lam = _CONTROLLED_CONFIGS[index]
    matrix = _matrix_of_kind(kind, (1 << n, 1 << n),
                             np.random.default_rng(seed))
    cfg = BlockEncodingConfig(qram=model, lam=lam, t=t,
                              variant=Variant.CONTROLLED)
    off = controlled_block(build_block_encoding(matrix, cfg), (0,))
    assert np.abs(off - np.eye(1 << n)).max() < 1e-10


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
@example(index=0, kind="single", seed=308)
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
        yield build_loadf(rng.uniform(0, 3, (side, 2)))
        yield build_sp_fixed(matrix[0], 1)
        yield build_sp_prerotated(matrix[0])


@pytest.mark.parametrize("method, t, want", [
    (Method.FIXED_PRECISION, None, 12),
    (Method.FIXED_PRECISION, 4, 4),
    (Method.PRE_ROTATED, None, None),
])
def test_result_carries_the_chosen_t(method, t, want):
    matrix = np.arange(1.0, 5.0).reshape(2, 2)
    cfg = BlockEncodingConfig(method=method, t=t, lam=1, qram=(
        QramModel.FLAGS if method is Method.PRE_ROTATED else SS))
    result = build_block_encoding(matrix, cfg)
    assert result.t == want


def test_counted_qubits_are_the_register_total():
    for circuit in _every_generator_circuit():
        assert count_resources(circuit).qubits == circuit.total_qubits


def test_written_text_counts_as_the_built_circuit():
    """The text has one line per op: it parses into a circuit with the same
    ops, macros with the same expansions included, which writes the same
    text and counts the same reports.  So does the flat text, each swap
    layer and Clifford layer written as its gates and each swap network as
    its columns, and a circuit with rotation blocks also flat in memory,
    each block replaced by its gates and each two-control flip by the
    Toffoli macro it counts as, which has no text line."""
    for circuit in _every_generator_circuit():
        text = write_circuit_text(circuit)
        parsed = parse_circuit_text(text)
        assert len(parsed.ops) == len(circuit.ops)
        assert ([op for op in parsed.ops if isinstance(op, Macro)]
                == [op for op in circuit.ops if isinstance(op, Macro)])
        assert write_circuit_text(parsed) == text
        reports = count_resources_at(circuit, (1, 10, 30))
        assert count_resources_at(parsed, (1, 10, 30)) == reports
        flat = parse_circuit_text(
            write_circuit_text(flattened(circuit, keep_blocks=True)))
        assert count_resources_at(flat, (1, 10, 30)) == reports
        if any(isinstance(op, RotationBlock) for op in circuit.ops):
            assert (count_resources_at(flattened(circuit), (1, 10, 30))
                    == reports)


@pytest.mark.parametrize("n, cfg", [
    pytest.param(3, BlockEncodingConfig(method=Method.PRE_ROTATED,
                                        qram=QramModel.FLAGS, lam=3),
                 id="prerotated-n3"),
    pytest.param(2, BlockEncodingConfig(qram=BB, lam=2, t=3), id="bb-l2-n2")])
def test_writer_formats_each_shared_field_set_once(n, cfg, monkeypatch):
    """Most compound ops sit beside their adjoints, which share their
    fields: the writer formats ``fields()`` once per ``Compound.key`` and
    still writes each op's line as it writes the op alone."""
    matrix = np.random.default_rng(n).uniform(5, 105, (1 << n, 1 << n))
    circuit = build_block_encoding(matrix, cfg).circuit
    compounds = {i: op for i, op in enumerate(circuit.ops)
                 if isinstance(op, Compound)}
    want = {i: op_line(op) for i, op in compounds.items()}
    keys = []
    for cls in Compound.__subclasses__():
        def counted(op, fields=cls.fields):
            keys.append(op.key())
            return fields(op)
        monkeypatch.setattr(cls, "fields", counted)
    lines = write_circuit_text(circuit).splitlines()
    distinct = {op.key() for op in compounds.values()}
    assert len(keys) == len(set(keys)) == len(distinct) < len(compounds)
    assert set(keys) == distinct
    head = 1 + len(circuit.registers) + len(circuit.stages)
    assert len(lines) == head + len(circuit.ops)
    assert {i: lines[head + i] for i in compounds} == want


def _cli_configs():
    """Every (method, QRAM, variant) the CLI builds, with each lambda, at
    n <= 2.  Bucket-brigade runs at n = 1 only, and not symmetric, whose
    encoding of a 2x2 matrix has n = 2: at n = 2 it outgrows the support
    cap."""
    for n in (1, 2):
        yield n, BlockEncodingConfig(method=Method.PRE_ROTATED,
                                     qram=QramModel.FLAGS, lam=n)
        for variant in Variant:
            for lam in range(n + 1):
                yield n, BlockEncodingConfig(lam=lam, t=3, variant=variant)
                if n == 1 and variant is not Variant.SYMMETRIC:
                    yield n, BlockEncodingConfig(qram=BB, lam=lam, t=3,
                                                 variant=variant)


@pytest.mark.parametrize("n, cfg", [
    pytest.param(n, cfg, id=f"{cfg.method.value}-{res.qram.value}-l{res.lam}"
                            f"-{cfg.variant.value}-n{n}")
    for n, cfg in _cli_configs() for res in [cfg.resolve(n)]])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_circuit_then_adjoint_returns_the_input(n, cfg, data):
    """U then U-dagger maps a basis input over all qubits, ancillas
    included, back to itself with amplitude 1."""
    matrix = np.random.default_rng(n).uniform(5, 105, (1 << n, 1 << n))
    circuit = build_block_encoding(matrix, cfg).circuit
    basis = data.draw(st.integers(0, (1 << circuit.total_qubits) - 1))
    inverse = Circuit(circuit.registers, adjoint_ops(circuit.ops),
                      circuit.total_qubits)
    state = run_circuit(circuit, basis).run(inverse)
    assert abs(state.amplitudes.get(basis, 0) - 1) < 1e-9


@pytest.mark.parametrize("n, cfg", [
    pytest.param(n, cfg, id=f"{cfg.method.value}-{res.qram.value}-l{res.lam}"
                            f"-{cfg.variant.value}-n{n}")
    for n, cfg in _cli_configs() for res in [cfg.resolve(n)]])
@settings(max_examples=3, deadline=None)
@given(k=st.integers(-60, 60),
       kind=st.sampled_from(("random", "zero_row", "sign_flipped", "sparse",
                             "single")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scaling_by_a_power_of_two_writes_the_same_circuit(n, cfg, k, kind,
                                                            seed):
    """At a fixed t, the circuit of 2^k * A is the circuit of A, text for
    text: every angle is a function of the entries' ratios."""
    matrix = _matrix_of_kind(kind, (1 << n, 1 << n),
                             np.random.default_rng(seed))
    text = write_circuit_text(build_block_encoding(matrix, cfg).circuit)
    scaled = build_block_encoding(math.ldexp(1.0, k) * matrix, cfg).circuit
    assert write_circuit_text(scaled) == text


_ONE_QUBIT_CLIFFORDS = frozenset((GateKind.X, GateKind.Z, GateKind.H))


def _is_layer_gate(op):
    """An uncontrolled one-target X, Z or H gate."""
    return (isinstance(op, Gate) and op.kind in _ONE_QUBIT_CLIFFORDS
            and not op.controls and len(op.targets) == 1)


def _cli_ops_up_to_n3():
    """``(n, cfg, ops)`` of every CLI configuration at n <= 3."""
    for n in (1, 2, 3):
        matrix = np.random.default_rng(n).uniform(5, 105, (1 << n, 1 << n))
        configs = [BlockEncodingConfig(method=Method.PRE_ROTATED,
                                       qram=QramModel.FLAGS, lam=n)]
        configs += [BlockEncodingConfig(qram=model, lam=lam, t=3,
                                        variant=variant)
                    for model in (SS, BB) for lam in range(n + 1)
                    for variant in Variant]
        for cfg in configs:
            yield n, cfg, build_block_encoding(matrix, cfg).circuit.ops


def test_no_run_of_one_qubit_cliffords_is_emitted_gate_by_gate():
    """Every CLI configuration at n <= 3 emits each run of one X, Z or H
    kind as one Clifford layer: no two such gates of one kind are adjacent
    ops."""
    for n, cfg, ops in _cli_ops_up_to_n3():
        pairs = [(a, b) for a, b in zip(ops, ops[1:])
                 if _is_layer_gate(a) and _is_layer_gate(b)
                 and a.kind is b.kind]
        assert not pairs, (n, cfg, pairs[:3])


_FLIPS = frozenset((GateKind.CNOT, GateKind.TOFFOLI))


def test_no_controlled_rotation_is_emitted_gate_by_gate():
    """Every CLI configuration at n <= 3 emits each controlled rotation as
    a rotation-block slot: no top-level CNOT or Toffoli is followed by an
    RY on its target."""
    for n, cfg, ops in _cli_ops_up_to_n3():
        pairs = [(a, b) for a, b in zip(ops, ops[1:])
                 if isinstance(a, Gate) and a.kind in _FLIPS
                 and isinstance(b, Gate) and b.kind is GateKind.RY
                 and b.targets == a.targets]
        assert not pairs, (n, cfg, pairs[:3])


def test_no_two_adjacent_clifford_layers_share_a_kind():
    """Adjacent layers of one kind are emitted as one: the pre-rotated
    encoding's flag X layer and LOADF's first one-hot X layer included."""
    for n, cfg, ops in _cli_ops_up_to_n3():
        pairs = [(op_line(a), op_line(b)) for a, b in zip(ops, ops[1:])
                 if isinstance(a, CliffordLayer)
                 and isinstance(b, CliffordLayer) and a.kind is b.kind]
        assert not pairs, (n, cfg, pairs[:3])


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


def _count_recipe_runs(monkeypatch):
    """A one-item list that counts the calls of every ``decomp`` recipe and
    of ``controlled_ry_gates`` from here on."""
    runs = [0]
    for name in ("_cswap_clean_gates", "_unary_select_gates",
                 "_unary_step_gates", "controlled_ry_gates"):
        def counting(*args, _recipe=getattr(decomp, name)):
            runs[0] += 1
            return _recipe(*args)
        monkeypatch.setattr(decomp, name, counting)
    return runs


def test_prerotated_macros_keep_recipes_not_gates(monkeypatch):
    """Building, counting, writing and parsing the pre-rotated n = 5
    encoding holds no macro or rotation-block expansion and runs no recipe:
    every macro declares its qubit roles, and its text line holds its
    factory's arguments; a rotation block is counted from its slots and
    written as its slots and angles."""
    runs = _count_recipe_runs(monkeypatch)
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
    blocks = [op for op in circuit.ops if isinstance(op, RotationBlock)]
    assert {(len(op.columns), op.inverted) for op in blocks} == {
        (2, False), (2, True), (3, False)}
    parsed = parse_circuit_text(write_circuit_text(circuit))
    assert len(parsed.ops) == len(circuit.ops)
    assert runs[0] == 0
    # Peak with every expansion stored (and frozenset roles): 9.3 MB; with
    # recipes: 4.2 MB (Python 3.11).
    assert peak < 6.5e6


def test_fixed_ladder_steps_are_blocks_not_gates(monkeypatch):
    """Building, counting, writing and parsing a fixed select-swap encoding
    runs no ``controlled_ry_gates``: each ladder step is one rotation block
    whose t slots share their target, forward in SP and inverted in SP
    dagger."""
    runs = _count_recipe_runs(monkeypatch)
    t = 5
    matrix = np.random.default_rng(0).uniform(5, 105, (8, 8))
    cfg = BlockEncodingConfig(qram=SS, lam=1, t=t)
    circuit = build_block_encoding(matrix, cfg).circuit
    report = count_resources(circuit, 30)
    parsed = parse_circuit_text(write_circuit_text(circuit))
    assert count_resources(parsed, 30) == report
    assert runs[0] == 0
    ladders = [op for op in circuit.ops if isinstance(op, RotationBlock)
               and len(set(op.columns[-1])) == 1]
    assert {(len(op.columns[0]), op.inverted) for op in ladders} == {
        (t, False), (t, True)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prerotated_loadf_builds_each_network_once(n):
    """Each of the D = N - 1 LOADF copies holds two swap networks, its
    one-hot and its angle network, and both LOADF legs use those same
    objects: the forward one (one-control blocks) and the reverse one
    (two-control blocks), in each of which a copy's block sits between
    its two networks.  So the circuit holds 2(N - 1) distinct network
    field sets."""
    big_n = 1 << n
    matrix = np.random.default_rng(n).uniform(5, 105, (big_n, big_n))
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED)
    ops = build_block_encoding(matrix, cfg).circuit.ops
    legs = {2: set(), 3: set()}
    for i, op in enumerate(ops):
        if isinstance(op, RotationBlock) and len(op.thetas) == big_n:
            copy = (ops[i - 1], ops[i + 1])
            assert all(isinstance(net, SwapNetwork) for net in copy)
            legs[len(op.columns)].update(net.key() for net in copy)
    networks = {op.key() for op in ops if isinstance(op, SwapNetwork)}
    assert len(networks) == 2 * (big_n - 1)
    assert legs[2] == legs[3] == networks


def test_prerotated_n6_is_a_few_thousand_ops():
    """Each LOADF copy's rotations are one block, not 4-5 ops per slot
    (35,654 ops before blocks), and each of its swap networks one op, not
    one per column (3,147 ops before networks, 1,257 now)."""
    matrix = np.random.default_rng(1).uniform(5, 105, (64, 64))
    cfg = BlockEncodingConfig(method=Method.PRE_ROTATED, qram=QramModel.FLAGS,
                              lam=6)
    assert len(build_block_encoding(matrix, cfg).circuit.ops) <= 1300


def test_largest_t_encodes_the_matrix():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = build_block_encoding(a, BlockEncodingConfig(t=1023))
    block = extract_block(res.circuit, res.in_qubits).block
    assert np.abs(res.alpha * block - a).max() < 1e-12
    with pytest.raises(ConfigurationError, match="<= 1023"):
        build_block_encoding(a, BlockEncodingConfig(t=1024))
