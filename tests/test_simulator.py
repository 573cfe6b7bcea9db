"""Sparse statevector simulator: gates, invariants, block extraction, and
hypothesis properties against an independent dense numpy reference."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockenc.circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    Macro,
    MacroKind,
    QubitRegister,
    stored_gates,
)
from blockenc.simulator import (
    SparseState,
    SupportCapError,
    check_clean,
    dense_unitary,
    encode_register,
    extract_block,
    run_circuit,
    spectral_norm,
)


def test_x_on_zero():
    st = SparseState.basis(1)
    st.apply(Gate(GateKind.X, (0,)))
    assert st.amplitudes == {1: 1.0 + 0.0j}


def test_h_on_zero():
    st = SparseState.basis(1)
    st.apply(Gate(GateKind.H, (0,)))
    amp = 1 / math.sqrt(2)
    assert abs(st.amplitudes[0] - amp) < 1e-12
    assert abs(st.amplitudes[1] - amp) < 1e-12


def test_ry_amplitudes():
    theta = 2 * math.acos(0.6)
    st = SparseState.basis(1)
    st.apply(Gate(GateKind.RY, (0,), (), theta))
    assert abs(st.amplitudes[0] - 0.6) < 1e-12
    assert abs(st.amplitudes[1] - 0.8) < 1e-12


def test_negative_polarity_controls():
    st = SparseState.basis(2)  # both qubits |0>
    st.apply(Gate(GateKind.CNOT, (1,), ((0, False),)))
    assert st.amplitudes == {2: 1.0 + 0.0j}


def _random_circuit(rng, n=4, ops=60):
    b = CircuitBuilder()
    b.allocate("q", n)
    for _ in range(ops):
        kinds = [GateKind.H, GateKind.T, GateKind.X, GateKind.S,
                 GateKind.G, GateKind.RY, GateKind.CNOT,
                 GateKind.CSWAP, GateKind.CZ, GateKind.TOFFOLI]
        kind = kinds[int(rng.integers(len(kinds)))]
        qs = [int(q) for q in rng.permutation(n)]
        if kind is GateKind.CNOT:
            b.gate(kind, (qs[0],), ((qs[1], bool(rng.integers(2))),))
        elif kind is GateKind.CSWAP:
            b.gate(kind, (qs[0], qs[1]), ((qs[2], True),))
        elif kind is GateKind.CZ:
            b.gate(kind, (qs[0], qs[1]))
        elif kind is GateKind.TOFFOLI:
            b.gate(kind, (qs[0],), ((qs[1], True), (qs[2], False)))
        elif kind is GateKind.RY:
            b.gate(kind, qs[0], angle=float(rng.uniform(0, 2 * math.pi)))
        else:
            b.gate(kind, qs[0])
    return b.build()


def test_norm_preserved():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = _random_circuit(rng)
        st = run_circuit(c, int(rng.integers(16)))
        assert abs(st.norm() - 1.0) < 1e-10


def test_linearity():
    rng = np.random.default_rng(1)
    c = _random_circuit(rng)
    a, b = 0.6, 0.8j
    st = SparseState(4, {3: a, 9: b})
    st.run(c)
    st0 = run_circuit(c, 3)
    st1 = run_circuit(c, 9)
    for idx in set(st.amplitudes) | set(st0.amplitudes) | set(st1.amplitudes):
        combined = a * st0.amplitudes.get(idx, 0) + b * st1.amplitudes.get(idx, 0)
        assert abs(st.amplitudes.get(idx, 0) - combined) < 1e-10


def test_adjoint_inverts():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = _random_circuit(rng)
        basis = int(rng.integers(16))
        st = run_circuit(c, basis)
        st.run(c.adjoint())
        assert abs(abs(st.amplitudes.get(basis, 0)) - 1.0) < 1e-9
        assert sum(abs(a) ** 2 for i, a in st.amplitudes.items()
                   if i != basis) < 1e-18


def test_check_clean():
    st = SparseState.basis(2, 0)
    assert check_clean(st, (0, 1))
    st = SparseState(2, {0: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)})
    assert not check_clean(st, (1,))
    assert check_clean(st, (0,))


def test_support_cap():
    b = CircuitBuilder()
    b.allocate("q", 8)
    for q in range(8):
        b.gate(GateKind.H, q)
    with pytest.raises(SupportCapError):
        run_circuit(b.build(), support_cap=100)


def test_spectral_norm_examples():
    assert abs(spectral_norm(np.diag([3.0, 4.0])) - 4.0) < 1e-9
    assert abs(spectral_norm(np.array([[0, 1], [1, 0]])) - 1.0) < 1e-9


def test_spectral_norm_vs_svd_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - want) < 1e-8


def test_extract_block_identity():
    b = CircuitBuilder()
    reg = b.allocate("data", 2)
    b.allocate("anc", 1)
    ext = extract_block(b.build(), reg.qubits)
    assert np.abs(ext.block - np.eye(4)).max() < 1e-12
    assert ext.all_clean


def test_extract_block_single_ry():
    theta = 1.234
    b = CircuitBuilder()
    reg = b.allocate("data", 1)
    b.gate(GateKind.RY, 0, angle=theta)
    ext = extract_block(b.build(), reg.qubits)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.abs(ext.block - np.array([[c, -s], [s, c]])).max() < 1e-12


def test_extract_block_norm_bound():
    rng = np.random.default_rng(4)
    c = _random_circuit(rng, n=4)
    ext = extract_block(c, (0, 1))
    assert spectral_norm(ext.block) <= 1 + 1e-10
    assert ext.unitary_witness < 1e-10


def test_dense_unitary_matches_kron():
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.gate(GateKind.H, 0)
    u = dense_unitary(b.build().ops, 2)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(u - np.kron(h, np.eye(2))).max() < 1e-12


def test_support_cap_env_override(monkeypatch):
    monkeypatch.setenv("BLOCKENC_SUPPORT_CAP", "64")
    st = SparseState.basis(8)
    assert st.support_cap == 64


# --------------------------------------------------------------------------
# Properties against an independent dense reference
# --------------------------------------------------------------------------

# Five active qubits straddling the 64-bit word boundaries of a wide circuit.
ACTIVE = (0, 63, 64, 127, 128)
WIDE = 130

_SHAPES = {  # kind -> (targets, controls); None means "drawn"
    GateKind.CNOT: (1, 1), GateKind.FANOUT_CNOT: (None, 1),
    GateKind.CZ: (2, 0), GateKind.SWAP: (2, 0), GateKind.CSWAP: (2, 1),
    GateKind.TOFFOLI: (1, 2), GateKind.MCX: (1, None),
    GateKind.CRY: (1, 1), GateKind.CCRY: (1, 2),
}
_ANGLED = (GateKind.RY, GateKind.CRY, GateKind.CCRY)


@st.composite
def _gates(draw):
    kind = draw(st.sampled_from(list(GateKind)))
    n_t, n_c = _SHAPES.get(kind, (1, 0))
    if n_t is None:
        n_t = draw(st.integers(1, 3))
    if n_c is None:
        n_c = draw(st.integers(1, 5 - n_t))
    order = draw(st.permutations(range(len(ACTIVE))))
    targets = tuple(ACTIVE[i] for i in order[:n_t])
    controls = tuple((ACTIVE[i], draw(st.booleans()))
                     for i in order[n_t:n_t + n_c])
    angle = (draw(st.floats(-2 * math.pi, 2 * math.pi))
             if kind in _ANGLED else None)
    return Gate(kind, targets, controls, angle)


@st.composite
def _op_lists(draw):
    gates = draw(st.lists(_gates(), max_size=20))
    lo = draw(st.integers(0, len(gates)))
    hi = draw(st.integers(lo, len(gates)))
    macro = Macro(MacroKind.AND_TOFFOLI, {}, stored_gates,
                  (tuple(gates[lo:hi]),), 0, 0, full=ACTIVE, ctrl=())
    return gates[:lo] + [macro] + gates[hi:]


def _one_qubit_matrix(g):
    s = np.diag([1, 1j])
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    t = np.diag([1, np.exp(1j * math.pi / 4)])
    gm = s.conj().T @ h @ t @ h @ s
    if g.kind in _ANGLED:
        c, sn = math.cos(g.angle / 2), math.sin(g.angle / 2)
        return np.array([[c, -sn], [sn, c]])
    return {GateKind.X: np.array([[0, 1], [1, 0]]), GateKind.H: h,
            GateKind.Z: np.diag([1, -1]), GateKind.S: s,
            GateKind.SDG: s.conj(), GateKind.T: t, GateKind.TDG: t.conj(),
            GateKind.G: gm, GateKind.GDG: gm.conj().T}[g.kind]


def _dense_apply(psi, g):
    """Apply ``g`` to a tensor with one axis per active qubit."""
    axis = {q: i for i, q in enumerate(ACTIVE)}
    sel = [slice(None)] * psi.ndim
    for q, positive in g.controls:
        sel[axis[q]] = int(positive)
    kept = [i for i in range(psi.ndim) if isinstance(sel[i], slice)]
    ax = [kept.index(axis[q]) for q in g.targets]
    sub = psi[tuple(sel)]
    if g.kind in (GateKind.CNOT, GateKind.FANOUT_CNOT, GateKind.TOFFOLI,
                  GateKind.MCX):
        for a in ax:
            sub = np.flip(sub, axis=a)
    elif g.kind in (GateKind.SWAP, GateKind.CSWAP):
        sub = np.swapaxes(sub, ax[0], ax[1])
    elif g.kind is GateKind.CZ:
        sub = sub.copy()
        both = [slice(None)] * sub.ndim
        both[ax[0]] = both[ax[1]] = 1
        sub[tuple(both)] *= -1
    else:
        m = _one_qubit_matrix(g)
        sub = np.moveaxis(np.tensordot(m, sub, axes=([1], [ax[0]])), 0, ax[0])
    psi = psi.copy()
    psi[tuple(sel)] = sub
    return psi


def _dense_run(ops, psi):
    for op in ops:
        for g in (op.expansion if isinstance(op, Macro) else (op,)):
            psi = _dense_apply(psi, g)
    return psi


def _wide_index(bits):
    """Basis index of the wide circuit from one bit per active qubit."""
    return sum(1 << q for q, b in zip(ACTIVE, bits) if b)


def _to_tensor(amplitudes):
    psi = np.zeros((2,) * len(ACTIVE), dtype=complex)
    for idx, amp in amplitudes.items():
        assert idx & ~_wide_index((1,) * len(ACTIVE)) == 0
        psi[tuple((idx >> q) & 1 for q in ACTIVE)] = amp
    return psi


def _wide_circuit(ops):
    return Circuit((QubitRegister("q", 0, WIDE),), ops, WIDE)


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@settings(_SETTINGS, max_examples=150)
@given(ops=_op_lists(), seed=st.integers(0, 2 ** 32 - 1),
       terms=st.integers(1, 4))
def test_wide_circuit_matches_dense_reference(ops, seed, terms):
    rng = np.random.default_rng(seed)
    psi = np.zeros((2,) * len(ACTIVE), dtype=complex)
    for _ in range(terms):
        bits = tuple(int(b) for b in rng.integers(0, 2, len(ACTIVE)))
        psi[bits] += complex(*rng.standard_normal(2))
    psi /= np.linalg.norm(psi)
    start = {_wide_index(bits): complex(psi[bits])
             for bits in zip(*np.nonzero(psi))}
    state = SparseState(WIDE, start)
    for op in ops:
        state.apply(op)
    want = _dense_run(ops, psi)
    assert np.abs(_to_tensor(state.amplitudes) - want).max() < 1e-10
    assert abs(state.norm() - 1.0) < 1e-10


@_SETTINGS
@given(ops=_op_lists(), n_in=st.integers(1, 3), dim_cut=st.integers(0, 1))
def test_batched_extract_matches_per_column_runs(ops, n_in, dim_cut):
    circuit = _wide_circuit(ops)
    in_qubits = ACTIVE[len(ACTIVE) - n_in:]
    dim = (1 << n_in) - dim_cut
    ext = extract_block(circuit, in_qubits, dim=dim)
    assert ext.block.shape == (1 << n_in, dim)
    peak = 0
    for k in range(dim):
        st_k = run_circuit(circuit, encode_register(in_qubits, k))
        peak = max(peak, st_k.peak_support)
        column = np.zeros(1 << n_in, dtype=complex)
        leak = 0.0
        for idx, amp in st_k.amplitudes.items():
            if idx & ~encode_register(in_qubits, (1 << n_in) - 1):
                leak += abs(amp) ** 2
            else:
                column[st_k.register_value(idx, in_qubits)] = amp
        assert np.abs(ext.block[:, k] - column).max() < 1e-12
        assert abs(ext.column_leaks[k] - leak) < 1e-12
        assert abs(ext.column_norms[k] - np.sum(np.abs(column) ** 2)) < 1e-12
    assert peak <= ext.peak_support <= dim * peak


@_SETTINGS
@given(spread=st.integers(1, 3), n_in=st.integers(1, 2))
def test_batched_extract_support_cap(spread, n_in):
    # Each column fans out over 2^spread entries; 2^n_in columns share the cap.
    ops = [Gate(GateKind.H, (q,)) for q in ACTIVE[:spread]]
    circuit = _wide_circuit(ops)
    in_qubits = ACTIVE[len(ACTIVE) - n_in:]
    total = (1 << n_in) << spread
    ext = extract_block(circuit, in_qubits, support_cap=total)
    assert ext.peak_support == total
    with pytest.raises(SupportCapError, match="exceeds cap"):
        extract_block(circuit, in_qubits, support_cap=total - 1)

