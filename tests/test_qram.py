"""Data-loading semantics and resource spot checks for the three loaders."""
import math

import numpy as np
import pytest

from blockenc.circuit import (
    Circuit,
    CliffordLayer,
    GateKind,
    Macro,
    SwapNetwork,
    adjoint_ops,
    count_resources,
    count_resources_at,
    parse_circuit_text,
    write_circuit_text,
)
from blockenc.qram import (
    ConfigurationError,
    LoadSpec,
    QramModel,
    build_load_bb,
    build_load_ss,
    build_loadf,
)
from blockenc.resources import cross_validate, evaluate
from blockenc.simulator import (
    SparseState,
    check_clean,
    encode_register,
    extract_block,
)


def random_rows(rng, n, d):
    return tuple(tuple(int(b) for b in rng.integers(0, 2, d))
                 for _ in range(1 << n))


def data_value(row):
    return int("".join(str(b) for b in row), 2)


def run_on_address(circuit, j, extra_bits=0):
    addr = circuit.register("addr").qubits
    st = SparseState.basis(circuit.total_qubits,
                           encode_register(addr, j) | extra_bits)
    return st.run(circuit)


# -- select-swap ---------------------------------------------------------------

def test_load_ss_spec_example_semantics():
    spec = LoadSpec(n=2, data_width=1, lam=2, model=QramModel.SELECT_SWAP,
                    rows=((0,), (1,), (1,), (0,)))
    c = build_load_ss(spec)
    data = c.register("data").qubits
    for j, want in enumerate((0, 1, 1, 0)):
        st = run_on_address(c, j)
        values = {st.register_value(idx, data) for idx in st.amplitudes}
        assert values == {want}


def test_load_ss_published_formula_spot_check():
    spec = LoadSpec(n=2, data_width=3, lam=1, model=QramModel.SELECT_SWAP,
                    rows=random_rows(np.random.default_rng(0), 2, 3))
    rep = count_resources(build_load_ss(spec))
    assert rep.as_tuple() == (8, 16, 8)  # (qubits, t_count, t_depth)


def test_load_ss_lambda0_is_pure_unary():
    for n in (1, 2, 3):
        rows = random_rows(np.random.default_rng(n), n, 2)
        spec = LoadSpec(n=n, data_width=2, lam=0,
                        model=QramModel.SELECT_SWAP, rows=rows)
        rep = count_resources(build_load_ss(spec))
        assert rep.t_count == 4 * (2 ** n - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_load_ss_all_lambda_semantics(n):
    rng = np.random.default_rng(10 + n)
    for lam in range(n + 1):
        for d in (1, 2):
            rows = random_rows(rng, n, d)
            spec = LoadSpec(n=n, data_width=d, lam=lam,
                            model=QramModel.SELECT_SWAP, rows=rows)
            c = build_load_ss(spec)
            data = c.register("data").qubits
            for j in range(1 << n):
                st = run_on_address(c, j)
                values = {st.register_value(idx, data) for idx in st.amplitudes}
                assert values == {data_value(rows[j])}, (n, lam, d, j)


def test_load_ss_inverse_property():
    rng = np.random.default_rng(3)
    spec = LoadSpec(n=2, data_width=2, lam=1, model=QramModel.SELECT_SWAP,
                    rows=random_rows(rng, 2, 2))
    c = build_load_ss(spec)
    addr = c.register("addr").qubits
    for j in range(4):
        st = run_on_address(c, j)
        st.run(Circuit(c.registers, adjoint_ops(c.ops), c.total_qubits))
        assert set(st.amplitudes) == {encode_register(addr, j)}
        assert abs(abs(st.amplitudes[encode_register(addr, j)]) - 1) < 1e-10


# -- bucket-brigade --------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_load_bb_semantics_and_garbage_freedom(n):
    rng = np.random.default_rng(20 + n)
    for lam in range(n + 1):
        for d in (1, 2):
            rows = random_rows(rng, n, d)
            spec = LoadSpec(n=n, data_width=d, lam=lam,
                            model=QramModel.BUCKET_BRIGADE, rows=rows)
            c = build_load_bb(spec)
            data = c.register("data").qubits
            addr = c.register("addr").qubits
            anc = [q for q in range(c.total_qubits)
                   if q not in data and q not in addr]
            for j in range(1 << n):
                st = run_on_address(c, j)
                values = {st.register_value(idx, data) for idx in st.amplitudes}
                assert values == {data_value(rows[j])}, (n, lam, d, j)
                assert check_clean(st, anc), (n, lam, d, j)
                assert st.pruned_weight < 1e-20


def test_load_bb_superposed_address():
    rng = np.random.default_rng(4)
    n, d, lam = 2, 1, 2
    rows = random_rows(rng, n, d)
    spec = LoadSpec(n=n, data_width=d, lam=lam,
                    model=QramModel.BUCKET_BRIGADE, rows=rows)
    c = build_load_bb(spec)
    addr = c.register("addr").qubits
    data = c.register("data").qubits
    amp = 1 / math.sqrt(2)
    st = SparseState(c.total_qubits, {encode_register(addr, 0): amp,
                                      encode_register(addr, 3): amp})
    st.run(c)
    assert len(st.amplitudes) == 2
    for j in (0, 3):
        idx = encode_register(addr, j) | encode_register(data, data_value(rows[j]))
        assert abs(st.amplitudes[idx] - amp) < 1e-10


def test_load_bb_depth_formula_example():
    # Published closed-form value at n=3, lambda=1, D=1.
    assert evaluate("load_bb", n=3, d=1, lam=1).t_depth == 44


def test_load_bb_counted_vs_formula_is_ledgered():
    rng = np.random.default_rng(5)
    rows = random_rows(rng, 3, 1)
    spec = LoadSpec(n=3, data_width=1, lam=1,
                    model=QramModel.BUCKET_BRIGADE, rows=rows)
    counted = count_resources(build_load_bb(spec))
    verdict = cross_validate(counted, "load_bb", {"n": 3, "d": 1, "lam": 1})
    assert verdict.passed
    assert verdict.ledger_refs  # the depth difference is explained, not silent


def test_load_bb_inverse_property():
    rng = np.random.default_rng(6)
    spec = LoadSpec(n=2, data_width=2, lam=2,
                    model=QramModel.BUCKET_BRIGADE, rows=random_rows(rng, 2, 2))
    c = build_load_bb(spec)
    addr = c.register("addr").qubits
    for j in range(4):
        st = run_on_address(c, j)
        st.run(Circuit(c.registers, adjoint_ops(c.ops), c.total_qubits))
        assert set(st.amplitudes) == {encode_register(addr, j)}


# -- LOADF -----------------------------------------------------------------------

def loadf_fixture(n=2, d=1, seed=0):
    rng = np.random.default_rng(seed)
    thetas = [tuple(float(x) for x in rng.uniform(0, math.pi, d))
              for _ in range(1 << n)]
    return build_loadf(thetas), thetas


def test_loadf_flag_zero_identity():
    c, _ = loadf_fixture()
    addr = c.register("addr").qubits
    for j in range(4):
        st = run_on_address(c, j)
        assert set(st.amplitudes) == {encode_register(addr, j)}
        assert abs(st.amplitudes[encode_register(addr, j)] - 1) < 1e-12


def test_loadf_flag_one_amplitudes():
    thetas = [(0.0,), (math.pi / 2,), (math.pi,), (math.pi / 3,)]
    c = build_loadf(thetas)
    addr = c.register("addr").qubits
    flag = c.register("f0_flag").qubits[0]
    slot0 = c.register("f0_angle").qubits[0]
    rest = [q for q in range(c.total_qubits)
            if q not in addr and q not in (slot0, flag)]
    for j in range(4):
        st = run_on_address(c, j, extra_bits=1 << flag)
        assert check_clean(st, rest)
        amp0 = amp1 = 0.0
        for idx, amp in st.amplitudes.items():
            if (idx >> slot0) & 1:
                amp1 = amp
            else:
                amp0 = amp
        theta = thetas[j][0]
        assert abs(amp0 - math.cos(theta / 2)) < 1e-10
        assert abs(amp1 - math.sin(theta / 2)) < 1e-10


def test_loadf_multi_copy_parallel():
    d = 2
    thetas = [(0.4, 2.0), (1.1, math.pi)]
    c = build_loadf(thetas)
    addr = c.register("addr").qubits
    flags = [c.register(f"f{r}_flag").qubits[0] for r in range(d)]
    slots = [c.register(f"f{r}_angle").qubits[0] for r in range(d)]
    for j in range(2):
        bits = (1 << flags[0]) | (1 << flags[1])
        st = run_on_address(c, j, extra_bits=bits)
        dense = {}
        for idx, amp in st.amplitudes.items():
            dense[tuple((idx >> s) & 1 for s in slots)] = amp
        for b0 in (0, 1):
            for b1 in (0, 1):
                want = (math.cos(thetas[j][0] / 2) if b0 == 0
                        else math.sin(thetas[j][0] / 2))
                want *= (math.cos(thetas[j][1] / 2) if b1 == 0
                         else math.sin(thetas[j][1] / 2))
                got = dense.get((b0, b1), 0.0)
                assert abs(got - want) < 1e-10


def test_loadf_n3_support_guard():
    """Slot by slot, n = 3 peaks at 92 entries (each rotation layer
    across all slots gives 8,192); flag 0 is the identity and flag 1 writes
    Ry(theta_j)|0> on the output slot, for angles across [0, 4*pi)."""
    n = 3
    thetas = np.random.default_rng(4).uniform(0, 4 * math.pi, (1 << n, 1))
    c = build_loadf(thetas)
    ins = (c.register("addr").qubits + c.register("f0_flag").qubits
           + c.register("f0_angle").qubits[:1])
    ext = extract_block(c, ins)
    assert ext.peak_support <= 4096
    for j in range(1 << n):
        for flag in (0, 1):
            col = (j << 2) | (flag << 1)     # output slot at |0>
            want = np.zeros(len(ext.block))
            if flag:
                want[col] = math.cos(thetas[j, 0] / 2)
                want[col | 1] = math.sin(thetas[j, 0] / 2)
            else:
                want[col] = 1.0
            assert np.abs(ext.block[:, col] - want).max() < 1e-9


def test_loadf_depth_formula():
    rep = evaluate("loadf", n=2, d=1, ry=30)
    assert rep.t_depth == 2 * 2 + 2 * 30 + 2
    c, _ = loadf_fixture(n=2, d=1)
    assert count_resources(c, ry_cost=30).t_depth == rep.t_depth


def test_loadf_inverse_property():
    c, _ = loadf_fixture(n=2, d=1, seed=9)
    addr = c.register("addr").qubits
    flag = c.register("f0_flag").qubits[0]
    for j in range(4):
        st = run_on_address(c, j, extra_bits=1 << flag)
        st.run(Circuit(c.registers, adjoint_ops(c.ops), c.total_qubits))
        want = encode_register(addr, j) | (1 << flag)
        assert set(st.amplitudes) == {want}
        assert abs(st.amplitudes[want] - 1) < 1e-9


def column_lines(network):
    """A swap network as the ``PARALLEL_CSWAP_CLEAN`` lines of its columns,
    as LOADF texts held them before networks."""
    slots, lines = network.slots, []
    for k, control in enumerate(network.controls):
        pairs = [(slots[c], slots[c + (1 << k)])
                 for c in range(0, len(slots), 2 << k)]
        pool = network.pool[:2 * len(pairs)]
        lines.append(f"m PARALLEL_CSWAP_CLEAN c={control} "
                     f"p={','.join(f'{a}:{b}' for a, b in pairs)} "
                     f"pool={','.join(map(str, pool))} "
                     f"inv={int(network.inverted)}")
    return lines[::-1] if network.inverted else lines


@pytest.mark.parametrize("n, d", [(1, 2), (3, 3)])
def test_loadf_copy_is_four_ops_between_x_layers(n, d):
    """A copy is the inverse one-hot network, the rotation block, and the
    angle and one-hot networks, between two X layers on every copy's
    one-hot slot 0: no per-column macro, no per-copy X.  Copy r's four ops
    are ops 1 + 4r .. 4 + 4r and touch only its registers and the address.
    The same circuit written with each network as its column lines parses
    into 3n + 1 ops per copy, plus the two layers, with the same counts."""
    c, _ = loadf_fixture(n=n, d=d)
    assert len(c.ops) == 4 * d + 2
    addr = set(c.register("addr").qubits)
    for r in range(d):
        own = addr.union(*(c.register(f"f{r}_{name}").qubits for name in
                           ("flag", "angle", "onehot", "pool_a", "pool_b")))
        for op in c.ops[1 + 4 * r: 5 + 4 * r]:
            assert set(op.qubits()) <= own, (r, op)
    starts = tuple(c.register(f"f{r}_onehot")[0] for r in range(d))
    for x in (c.ops[0], c.ops[-1]):
        assert isinstance(x, CliffordLayer)
        assert (x.kind, x.targets) == (GateKind.X, starts)
    assert not any(isinstance(op, (Macro, CliffordLayer))
                   for op in c.ops[1:-1])
    assert sum(isinstance(op, SwapNetwork) for op in c.ops) == 3 * d
    text = write_circuit_text(c).splitlines()
    lines = [line for line in text if line.startswith(("qubits", "reg"))]
    for op, line in zip(c.ops, text[-len(c.ops):]):
        lines += column_lines(op) if isinstance(op, SwapNetwork) else [line]
    columns = parse_circuit_text("\n".join(lines) + "\n")
    assert len(columns.ops) == (3 * n + 1) * d + 2
    assert ([r.as_tuple() for r in count_resources_at(columns, (0, 1, 30))]
            == [r.as_tuple() for r in count_resources_at(c, (0, 1, 30))])


@pytest.mark.parametrize("thetas", [
    [], [(0.1,)], [(0.1,)] * 3, [(), ()], [(0.1,), (0.2, 0.3)],
    [(0.1, 0.2), (0.3,)], np.zeros((4, 0))],
    ids=["no-rows", "one-row", "three-rows", "no-angles", "ragged",
         "ragged-first", "empty-array"])
def test_loadf_rejects_angle_rows_of_the_wrong_shape(thetas):
    with pytest.raises(ConfigurationError, match="2\\^n rows"):
        build_loadf(thetas)


# -- configuration -----------------------------------------------------------------

def test_load_spec_validation():
    with pytest.raises(ConfigurationError):
        LoadSpec(n=2, data_width=1, lam=3, model=QramModel.SELECT_SWAP,
                 rows=tuple((0,) for _ in range(4)))
    with pytest.raises(ConfigurationError):
        LoadSpec(n=2, data_width=1, lam=1, model=QramModel.FLAGS)
    with pytest.raises(ConfigurationError):
        LoadSpec(n=2, data_width=1, lam=2, model=QramModel.SELECT_SWAP,
                 rows=((0,),) * 3)
    with pytest.raises(ConfigurationError):
        build_load_ss(LoadSpec(n=2, data_width=1, lam=2,
                               model=QramModel.BUCKET_BRIGADE,
                               rows=((0,),) * 4))
