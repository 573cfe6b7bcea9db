"""Appendix-style gate decompositions against dense-matrix oracles.

Each test checks the gates and macros the generators emit.  The oracle side
builds target unitaries directly in numpy; the emitted side is evaluated
through the sparse simulator.  Phase-incorrect gadgets must match
entrywise in absolute value; phase-exact ones match to 1e-12.  Declared costs
are the literal values of the paper's construction captions.
"""
import math

import numpy as np
import pytest

from blockenc.circuit import CircuitBuilder, GateKind, adjoint_ops, count_resources
from blockenc.decomp import (
    ParameterError,
    and_toffoli,
    controlled_ry_gates,
    parallel_cswap_clean,
    parallel_cswap_phase_incorrect_gates,
    unary_select,
)
from blockenc.simulator import dense_unitary

def ry_matrix(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def controlled(unitary, n_controls=1):
    dim = unitary.shape[0]
    total = dim * (1 << n_controls)
    out = np.eye(total, dtype=complex)
    out[total - dim:, total - dim:] = unitary
    return out


def cswap_matrix():
    m = np.eye(8)
    m[[5, 6], [5, 6]] = 0
    m[5, 6] = m[6, 5] = 1
    return m


def toffoli_matrix():
    m = np.eye(8)
    m[[6, 7], [6, 7]] = 0
    m[6, 7] = m[7, 6] = 1
    return m


def cry(theta):
    """The singly controlled rotation as emitted: control 0, target 1."""
    return controlled_ry_gates(theta, (0,), 1)


def cswaps(size):
    """Controlled swap of registers 1..size and size+1..2*size on control 0,
    as the state preparation and select-swap loader emit it."""
    pairs = tuple((1 + i, 1 + size + i) for i in range(size))
    return parallel_cswap_phase_incorrect_gates(((0, True),), pairs)


def counted(gates, num_qubits, ry_cost=0):
    b = CircuitBuilder()
    b.allocate("q", num_qubits)
    b.extend(gates)
    return count_resources(b.build(), ry_cost=ry_cost)


# -- controlled-Ry ----------------------------------------------------------

def test_controlled_ry_zero_is_identity():
    u = dense_unitary(cry(0.0), 2)
    assert np.abs(u - np.eye(4)).max() < 1e-12


def test_controlled_ry_quarter_turn():
    u = dense_unitary(cry(math.pi / 2), 2)
    assert np.abs(u - controlled(ry_matrix(math.pi / 2))).max() < 1e-12


def test_controlled_ry_needs_z_correction_above_pi():
    theta = 3 * math.pi / 2
    gates = cry(theta)
    assert any(g.kind is GateKind.Z for g in gates)
    u = dense_unitary(gates, 2)
    assert np.abs(u - controlled(ry_matrix(theta))).max() < 1e-12
    # Without the correction the active branch flips sign.
    bare = [g for g in gates if g.kind is not GateKind.Z]
    v = dense_unitary(bare, 2)
    target = controlled(ry_matrix(theta))
    assert np.abs(v - target).max() > 0.5
    assert np.abs(np.abs(v) - np.abs(target)).max() < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, math.pi,
                                   4.1, 2 * math.pi - 1e-6])
def test_controlled_ry_dense_oracle(theta):
    u = dense_unitary(cry(theta), 2)
    assert np.abs(u - controlled(ry_matrix(theta))).max() < 1e-9


@pytest.mark.parametrize("theta", [0.3, math.pi, 5.5])
def test_doubly_controlled_ry(theta):
    u = dense_unitary(controlled_ry_gates(theta, (0, 1), 2), 3)
    assert np.abs(u - controlled(ry_matrix(theta), 2)).max() < 1e-9


def test_controlled_ry_rotation_count():
    gates = cry(1.0)
    assert sum(g.kind is GateKind.RY for g in gates) == 2
    assert counted(gates, 2, ry_cost=5).t_count == 10


def test_controlled_ry_gates_domain():
    with pytest.raises(ParameterError):
        controlled_ry_gates(1.0, (0, 1, 2), 3)


# -- phase-incorrect controlled-swap -----------------------------------------

def test_cswap_fragment_abs_equality_and_cost():
    gates = cswaps(1)
    u = dense_unitary(gates, 3)
    assert np.abs(np.abs(u) - cswap_matrix()).max() < 1e-12
    rep = counted(gates, 3)
    assert (rep.t_count, rep.t_depth) == (4, 4)
    # |1,a,b> -> |1,b,a> up to sign; |0,a,b> fixed up to sign
    for a in (0, 1):
        for b in (0, 1):
            col = 4 | (a << 1) | b
            out = np.flatnonzero(np.abs(u[:, col]) > 1e-9)
            assert list(out) == [4 | (b << 1) | a]
            col = (a << 1) | b
            out = np.flatnonzero(np.abs(u[:, col]) > 1e-9)
            assert list(out) == [col]


def test_cswap_fragment_round_trip_cancels_phases():
    gates = cswaps(1)
    u = dense_unitary(gates, 3)
    adj = dense_unitary(adjoint_ops(gates), 3)
    assert np.abs(adj @ u - np.eye(8)).max() < 1e-12


# -- multi-qubit register swap ----------------------------------------------

def test_multi_cswap_t1_matches_single():
    rep = counted(cswaps(1), 3)
    assert (rep.t_count, rep.t_depth) == (4, 4)


def test_multi_cswap_t3_cost():
    rep = counted(cswaps(3), 7)
    assert (rep.t_count, rep.t_depth) == (12, 4)


def test_multi_cswap_semantics_all_basis():
    u = dense_unitary(cswaps(3), 7)
    for col in range(128):
        ctrl, a, b = col >> 6, (col >> 3) & 7, col & 7
        want = (ctrl << 6) | ((b << 3) | a if ctrl else (a << 3) | b)
        out = np.flatnonzero(np.abs(u[:, col]) > 1e-9)
        assert list(out) == [want]


# -- phase-correct parallel controlled swap ----------------------------------

def test_parallel_cswap_clean_k1_exact():
    macro = parallel_cswap_clean(num_pairs=1)
    u = dense_unitary([macro], 4)
    # Layout: control 0, pair (1, 2), copy ancilla 3 starting |0>.
    for c in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                col = (c << 3) | (a << 2) | (b << 1)
                x, y = (b, a) if c else (a, b)
                want = (c << 3) | (x << 2) | (y << 1)
                vec = u[:, col]
                assert abs(vec[want] - 1) < 1e-12


def test_parallel_cswap_control_off_is_identity():
    macro = parallel_cswap_clean(num_pairs=1)
    u = dense_unitary([macro], 4)
    for col in range(0, 8, 2):
        assert abs(u[col, col] - 1) < 1e-12


def test_parallel_cswap_clean_k2_cost():
    macro = parallel_cswap_clean(num_pairs=2)
    assert (macro.t_count, macro.t_depth, macro.extra_ancillas) == (8, 1, 4)


# -- unary select -------------------------------------------------------------

def test_unary_select_costs():
    assert unary_select(s=1, write_rows=[(), ()]).t_count == 4
    macro = unary_select(s=3, write_rows=[() for _ in range(8)])
    assert (macro.t_count, macro.t_depth, macro.extra_ancillas) == (28, 28, 2)


@pytest.mark.parametrize("s", [1, 2])
def test_unary_select_semantics(s):
    rng = np.random.default_rng(s)
    width = 3
    rows = [tuple(int(x) for x in rng.integers(0, 2, width))
            for _ in range(1 << s)]
    data_qubits = tuple(range(s, s + width))
    write_rows = [tuple(q for q, bit in zip(data_qubits, row) if bit)
                  for row in rows]
    anc = (s + width,) if s >= 2 else None
    macro = unary_select(select_qubits=tuple(range(s)), write_rows=write_rows,
                         ancillas=anc, footprint=data_qubits)
    total = s + width + (1 if s >= 2 else 0)
    u = dense_unitary([macro], total)
    for j in range(1 << s):
        col = j << (total - s)
        row_bits = int("".join(map(str, rows[j])), 2)
        want = col | (row_bits << (1 if s >= 2 else 0))
        assert abs(u[want, col] - 1) < 1e-12


def test_and_toffoli_exactness():
    macro = and_toffoli(0, 1, 2)
    u = dense_unitary([macro], 3)
    assert np.abs(u - toffoli_matrix()).max() < 1e-12
    assert (macro.t_count, macro.t_depth, macro.extra_ancillas) == (4, 1, 1)
