"""Sparse statevector simulator: gates, invariants, block extraction, and
hypothesis properties against an independent dense numpy reference."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockenc.circuit import (
    Circuit,
    CircuitBuilder,
    Compound,
    Gate,
    GateKind,
    Macro,
    MacroKind,
    QubitRegister,
    RotationBlock,
    SwapLayer,
    adjoint_ops,
)
from blockenc.encoding import (
    BlockEncodingConfig,
    Method,
    QramModel,
    build_block_encoding,
)
from blockenc import simulator
from blockenc.simulator import (
    SimulationError,
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
                 "layer", GateKind.TOFFOLI]
        kind = kinds[int(rng.integers(len(kinds)))]
        qs = [int(q) for q in rng.permutation(n)]
        if kind is GateKind.CNOT:
            b.gate(kind, (qs[0],), ((qs[1], bool(rng.integers(2))),))
        elif kind == "layer":
            b.add(SwapLayer(((qs[2], True),), ((qs[0], qs[1]),)))
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
        st.run(Circuit(c.registers, adjoint_ops(c.ops), c.total_qubits))
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


def test_refused_branch_allocates_nothing_sized_by_the_new_support():
    """An H on a fresh qubit of S entries would keep 2S: at cap S it is
    refused with that exact count, and the call never holds as many bytes
    as the state's own arrays."""
    size = 1 << 17
    state = SparseState(18, {i: 1.0 for i in range(size)}, support_cap=size)
    own = state._keys.nbytes + state._amps.nbytes
    tracemalloc.start()
    try:
        with pytest.raises(SupportCapError,
                           match=f"^support {2 * size} exceeds cap {size};"):
            state.apply(Gate(GateKind.H, (17,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < own
    assert state.peak_support == 2 * size
    assert len(state._amps) == size


def _reference_branch(keys, amps, q, m, hit):
    """The concatenate-then-prune branch: both outcome rows of the ``hit``
    entries side by side, pruned together, then the untouched entries."""
    w, mask = q // 64, np.uint64(1 << q % 64)
    rest = keys[:, ~hit], amps[~hit]
    keys, amps = keys[:, hit], amps[hit]
    on = (keys[w] & mask) != 0
    base = keys.copy()
    base[w] &= ~mask
    if on.all() or not on.any():
        out = m[:, int(on.any()), None] * amps
    else:
        order = np.lexsort(base[::-1])
        ordered = base[:, order]
        starts = np.flatnonzero(np.r_[
            True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)])
        base = ordered[:, starts]
        out = np.add.reduceat(m[:, on[order].view(np.int8)] * amps[order],
                              starts, axis=1)
    both = np.concatenate((base, base), axis=1)
    both[w, base.shape[1]:] |= mask
    out = out.ravel()
    small = np.abs(out) < 1e-14
    dropped = out[small]
    return (np.concatenate((both[:, ~small], rest[0]), axis=1),
            np.concatenate((out[~small], rest[1])),
            float(np.sum(dropped.real ** 2 + dropped.imag ** 2)))


def _branch_start(merge, rng):
    """Entries on a 70-qubit state, control 1 drawn and target 64 clear;
    with ``merge``, half the controlled ones get a partner with the target
    set whose amplitude cancels row 0 exactly under RY(pi)."""
    start = {}
    for _ in range(40):
        index = (int(rng.integers(1 << 62)) << 1
                 | int(rng.integers(1 << 5)) << 65)
        start[index] = complex(*rng.standard_normal(2))
    if merge:
        for index, amp in list(start.items())[:20]:
            if index >> 1 & 1:
                start[index | 1 << 64] = (
                    math.cos(math.pi / 2) * amp if index & 4
                    else complex(rng.standard_normal()))
    return start


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("merge", [False, True])
def test_controlled_branch_matches_the_concatenate_then_prune_reference(
        merge, chunk, monkeypatch):
    """A controlled RY(pi) keeps the reference's keys in its order, its
    amplitudes, pruned weight and peak; at a cap equal to the kept support
    (counted ahead, in chunks of 3 runs when ``chunk`` is set) too, and one
    below it raises with that count."""
    if chunk:
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
    start = _branch_start(merge, np.random.default_rng(11))
    block = RotationBlock(((1,), (64,)), [math.pi])
    before = SparseState(70, start)
    hit = (before._keys[0] & np.uint64(2)) != 0
    keys, amps, pruned = _reference_branch(
        before._keys, before._amps, 64, simulator._ry_matrix(math.pi), hit)
    assert pruned > 0 and len(amps) < len(start) + np.count_nonzero(hit)
    if merge:   # some branched entries meet
        cleared = before._keys[:, hit]
        cleared[1] &= ~np.uint64(1)
        assert np.unique(cleared, axis=1).shape[1] < np.count_nonzero(hit)
    caps = (None, len(amps)) if chunk is None else (len(amps),)
    for cap in caps:
        state = SparseState(70, start, support_cap=cap).apply(block)
        assert np.array_equal(state._keys, keys)
        assert np.array_equal(state._amps, amps)
        assert state.pruned_weight == pruned
        assert state.peak_support == max(len(start), len(amps))
    with pytest.raises(SupportCapError,
                       match=f"^support {len(amps)} exceeds cap "
                             f"{len(amps) - 1};"):
        SparseState(70, start, support_cap=len(amps) - 1).apply(block)


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
    assert ext.column_leaks == (0.0,) * 4


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


@pytest.mark.parametrize("gate", [
    Gate(GateKind.RY, (1,), ((0, True),), 0.5),
    Gate(GateKind.H, (1,), ((0, True),)),
    Gate(GateKind.Z, (1,), ((0, False),)),
    Gate(GateKind.T, (1,), ((0, True),)),
    Gate(GateKind.SWAP, (1, 2), ((0, True),)),
])
def test_only_flips_take_controls(gate):
    """A raw op list may hold a gate ``Gate.validate`` rejects: the simulator
    raises rather than apply it without its controls."""
    with pytest.raises(SimulationError, match="takes no controls"):
        SparseState.basis(3, 1).apply(gate)
    with pytest.raises(SimulationError, match="takes no controls"):
        dense_unitary([gate], 3)


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
    GateKind.SWAP: (2, 0),
    GateKind.TOFFOLI: (1, 2), GateKind.MCX: (1, None),
}


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
             if kind is GateKind.RY else None)
    return Gate(kind, targets, controls, angle)


# Any finite angle, 0 and +-pi included.
_ANGLES = st.one_of(st.sampled_from((0.0, math.pi, -math.pi)),
                    st.floats(-2 * math.pi, 2 * math.pi),
                    st.floats(allow_nan=False, allow_infinity=False))
# The same without nonzero angles below 1e-6, for comparing two sparse runs:
# a tinier rotation can open a branch just above the prune threshold whose
# half-angle branch falls below it gate by gate
# (test_tiny_rotation_keeps_a_branch_gate_by_gate_prunes).
_CLEAR_ANGLES = _ANGLES.filter(lambda a: a == 0 or abs(a) >= 1e-6)


@st.composite
def _rotation_blocks(draw, qubits=ACTIVE, angles=_ANGLES):
    """A rotation block on ``qubits``: slots of one control or of two, on
    distinct targets or all on one, as many as leave a qubit for the
    fanout, with or without the fanout, forward or adjoint."""
    order = draw(st.permutations(qubits))
    width = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        m = width - 1
        count = draw(st.integers(1, (len(qubits) - 2) // m))
        columns = [*(order[1 + j:1 + count * m:m] for j in range(m)),
                   (order[0],) * count]
    else:
        count = draw(st.integers(1, (len(qubits) - 1) // width))
        columns = [order[j:count * width:width] for j in range(width)]
    block = RotationBlock(
        columns, draw(st.lists(angles, min_size=count, max_size=count)),
        order[-1] if draw(st.booleans()) else None)
    return block.adjoint() if draw(st.booleans()) else block


@st.composite
def _swap_layers(draw, qubits=ACTIVE):
    """A swap layer on ``qubits``: default or layered, either control
    polarity, forward or adjoint."""
    order = draw(st.permutations(qubits))
    count = draw(st.integers(1, (len(qubits) - 1) // 2))
    pairs = tuple(zip(order[1:1 + count], order[1 + count:1 + 2 * count]))
    layer = SwapLayer(((order[0], draw(st.booleans())),), pairs,
                      layered=draw(st.booleans()))
    return layer.adjoint() if draw(st.booleans()) else layer


def _expanded(op):
    """The gates of ``op``: its expansion, or the gate itself."""
    return op.expansion if isinstance(op, Compound) else (op,)


def _stored(gates):
    return gates


@st.composite
def _op_lists(draw):
    gates = draw(st.lists(_gates(), max_size=20))
    lo = draw(st.integers(0, len(gates)))
    hi = draw(st.integers(lo, len(gates)))
    macro = Macro(MacroKind.UNARY_STEP, _stored,
                  (tuple(gates[lo:hi]),), 0, 0, full=ACTIVE, ctrl=())
    ops = gates[:lo] + [macro] + gates[hi:]
    for op in draw(st.lists(st.one_of(_rotation_blocks(), _swap_layers()),
                            max_size=2)):
        ops.insert(draw(st.integers(0, len(ops))), op)
    return ops


def _one_qubit_matrix(g):
    s = np.diag([1, 1j])
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    t = np.diag([1, np.exp(1j * math.pi / 4)])
    gm = s.conj().T @ h @ t @ h @ s
    if g.kind is GateKind.RY:
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
    elif g.kind is GateKind.SWAP:
        sub = np.swapaxes(sub, ax[0], ax[1])
    else:
        m = _one_qubit_matrix(g)
        sub = np.moveaxis(np.tensordot(m, sub, axes=([1], [ax[0]])), 0, ax[0])
    psi = psi.copy()
    psi[tuple(sel)] = sub
    return psi


def _dense_run(ops, psi):
    for op in ops:
        for g in _expanded(op):
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


def _circuit(ops, num_qubits=WIDE):
    return Circuit((QubitRegister("q", 0, num_qubits),), ops, num_qubits)


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
    circuit = _circuit(ops)
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
    circuit = _circuit(ops)
    in_qubits = ACTIVE[len(ACTIVE) - n_in:]
    total = (1 << n_in) << spread
    ext = extract_block(circuit, in_qubits, support_cap=total)
    assert ext.peak_support == total
    with pytest.raises(SupportCapError, match="exceeds cap"):
        extract_block(circuit, in_qubits, support_cap=total - 1)



# --------------------------------------------------------------------------
# Whole ops against gate-by-gate application of their expansions
# --------------------------------------------------------------------------

# Seven active qubits of a 70-qubit circuit, on both sides of bit 64.
NARROW = (0, 1, 62, 63, 64, 65, 69)
NARROW_WIDTH = 70


def _per_op(num_qubits, start, ops):
    """The reference: every op's expansion applied gate by gate."""
    state = SparseState(num_qubits, start)
    for op in ops:
        for g in _expanded(op):
            state.apply(g)
    return state


def _assert_same_state(whole, reference, tol=1e-12):
    assert set(whole.amplitudes) == set(reference.amplitudes)
    assert max(abs(a - reference.amplitudes[i])
               for i, a in whole.amplitudes.items()) < tol
    assert whole.peak_support <= reference.peak_support


@st.composite
def _narrow_gates(draw):
    """One H, G, S, T, CNOT, Toffoli or RY on the narrow qubits."""
    kind = draw(st.sampled_from(("H", "G", "S", "T", "CNOT", "TOFFOLI", "RY")))
    qs = draw(st.permutations(NARROW))
    if kind == "CNOT":
        return Gate(GateKind.CNOT, (qs[0],), ((qs[1], draw(st.booleans())),))
    if kind == "TOFFOLI":
        return Gate(GateKind.TOFFOLI, (qs[0],),
                    ((qs[1], draw(st.booleans())),
                     (qs[2], draw(st.booleans()))))
    if kind == "RY":
        return Gate(GateKind.RY, (qs[0],), (), draw(_CLEAR_ANGLES))
    return Gate(GateKind[kind], (qs[0],))


@_SETTINGS
@given(ops=st.lists(st.one_of(_swap_layers(NARROW),
                              _rotation_blocks(NARROW, _CLEAR_ANGLES),
                              _narrow_gates()), max_size=12),
       cut=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       seed=st.integers(0, 2 ** 32 - 1), terms=st.integers(1, 6))
def test_whole_ops_match_gate_by_gate_application(ops, cut, seed, terms):
    """Swap layers, rotation blocks, plain gates and a macro holding the
    gates of a slice of them, run whole, against their expansions run gate
    by gate."""
    lo, hi = sorted(min(c, len(ops)) for c in cut)
    gates = tuple(g for op in ops[lo:hi] for g in _expanded(op))
    macro = Macro(MacroKind.UNARY_STEP, _stored, (gates,), 0, 0,
                  full=NARROW, ctrl=())
    ops = ops[:lo] + [macro] + ops[hi:]
    rng = np.random.default_rng(seed)
    start = {}
    for _ in range(terms):
        bits = rng.integers(0, 2, len(NARROW))
        index = sum(1 << q for q, b in zip(NARROW, bits) if b)
        start[index] = complex(*rng.standard_normal(2))
    scale = math.sqrt(sum(abs(a) ** 2 for a in start.values()))
    start = {i: a / scale for i, a in start.items()}
    whole = SparseState(NARROW_WIDTH, start).run(_circuit(ops, NARROW_WIDTH))
    _assert_same_state(whole, _per_op(NARROW_WIDTH, start, ops))


def _superposed(qubits, seed=5):
    """Every basis state on ``qubits`` (the others |0>), random amplitudes."""
    rng = np.random.default_rng(seed)
    size = 1 << len(qubits)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps /= np.linalg.norm(amps)
    return {encode_register(qubits, k): a for k, a in enumerate(amps.tolist())}


@pytest.mark.parametrize("adjoint", [False, True])
def test_cswap_fragment_is_one_monomial_block(adjoint):
    pairs = ((1, 2), (3, 4))
    layer = SwapLayer(((0, True),), pairs)
    if adjoint:
        layer = layer.adjoint()
    # The second qubit of each pair starts at |0>, so G branches it.
    start = _superposed((0, 1, 3))
    whole = SparseState(5, start).run(_circuit([layer], 5))
    reference = _per_op(5, start, [layer])
    _assert_same_state(whole, reference)
    assert whole.peak_support == len(start) < reference.peak_support


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("positive", [False, True])
def test_one_pair_layered_layer_is_one_monomial_block(positive, adjoint):
    """A layered layer of one pair expands to the default form's nine gates
    (its fanout is the CNOT c->b), so it goes whole as well."""
    layer = SwapLayer(((0, positive),), ((1, 2),), layered=True)
    if adjoint:
        layer = layer.adjoint()
    start = _superposed((0, 1))
    whole = SparseState(3, start).run(_circuit([layer], 3))
    reference = _per_op(3, start, [layer])
    _assert_same_state(whole, reference)
    assert whole.peak_support == len(start) < reference.peak_support


def test_rotation_and_layered_column_keep_per_op_support():
    """A swap-layer fragment split by a rotation is loose gates, and a
    layered layer of two pairs runs its expansion gate by gate: whole-op application of
    the layered form is left for later, so both keep the per-op peak."""
    fragment = list(SwapLayer(((0, True),), ((1, 2),)).expansion)
    with_ry = fragment[:4] + [Gate(GateKind.RY, (2,), (), 0.7)] + fragment[4:]
    layered = [SwapLayer(((0, True),), ((1, 2), (3, 4)), layered=True)]
    for ops in (with_ry, layered):
        start = _superposed((0, 1, 3))
        whole = SparseState(5, start).run(_circuit(ops, 5))
        reference = _per_op(5, start, ops)
        _assert_same_state(whole, reference)
        assert whole.peak_support == reference.peak_support > len(start)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("controls", [(0,), (0, 2)])
def test_rotation_block_branches_only_its_controlled_entries(controls,
                                                             adjoint):
    """m entries, k of them with the slot's controls at |1>: the block peaks
    at m + k entries, gate by gate at 2m."""
    block = RotationBlock([(c,) for c in (*controls, 1)], [0.7])
    if adjoint:
        block = block.adjoint()
    start = _superposed((0, 2, 3))
    m, k = len(start), len(start) >> len(controls)
    whole = SparseState(4, start).run(_circuit([block], 4))
    reference = _per_op(4, start, [block])
    _assert_same_state(whole, reference)
    assert (whole.peak_support, reference.peak_support) == (m + k, 2 * m)


def test_tiny_rotation_keeps_a_branch_gate_by_gate_prunes():
    """RY(1e-13) on amplitude 0.3 opens a 1.5e-14 branch, above the prune
    threshold; gate by gate the half-angle branch (7.5e-15) is pruned first
    and RY(theta/2) has nothing left to rotate, so the whole op holds one
    entry more, and peaks higher, by a branch far below any tolerance."""
    block = RotationBlock(((0,), (1,)), [1e-13])
    whole = SparseState(2, {1: 0.3}).run(_circuit([block], 2))
    reference = _per_op(2, {1: 0.3}, [block])
    assert dict(reference.amplitudes) == {1: 0.3}
    assert set(whole.amplitudes) == {1, 3}
    assert abs(whole.amplitudes[3] - 0.3 * math.sin(5e-14)) < 1e-28
    assert whole.peak_support == 2 > reference.peak_support


def test_select_swap_block_peaks_at_half_the_per_op_support():
    # The shape of the verify benchmark's ss-l1-n3 request: n = 3, lambda = 1.
    a = np.random.default_rng(7).uniform(5, 105, (8, 8))
    res = build_block_encoding(a, BlockEncodingConfig(lam=1, t=10))
    ext = extract_block(res.circuit, res.in_qubits)
    assert ext.peak_support == 512
    block = np.zeros_like(ext.block)
    data = encode_register(res.in_qubits, (1 << len(res.in_qubits)) - 1)
    peak = 0
    for k in range(block.shape[1]):
        state = _per_op(res.circuit.total_qubits,
                        {encode_register(res.in_qubits, k): 1.0},
                        res.circuit.ops)
        peak = max(peak, state.peak_support)
        for idx, amp in state.amplitudes.items():
            if not idx & ~data:
                block[state.register_value(idx, res.in_qubits), k] = amp
    assert peak == 128       # per column; 1024 for the per-op batched pass
    assert np.abs(ext.block - block).max() < 1e-12


def test_prerotated_block_peaks_at_half_the_per_op_support():
    # The shape of the verify benchmark's prerotated-n3 request.
    a = np.random.default_rng(81).uniform(5, 105, (8, 8))
    res = build_block_encoding(a, BlockEncodingConfig(
        method=Method.PRE_ROTATED, qram=QramModel.FLAGS, lam=3))
    ext = extract_block(res.circuit, res.in_qubits)
    assert ext.peak_support == 1024     # 2048 with rotations gate by gate
    error = spectral_norm(res.padded - res.alpha * ext.block)
    assert error <= 1e-9 * res.alpha
