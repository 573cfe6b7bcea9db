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
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc.circuit import (
    CircuitBuilder,
    Gate,
    GateKind,
    SwapLayer,
    adjoint_ops,
    count_resources,
)
from blockenc.decomp import (
    ParameterError,
    controlled_ry_gates,
    parallel_cswap_clean,
    unary_select,
    unary_step,
)
from blockenc.simulator import dense_unitary
from test_circuit import toffoli_macro

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
    as the state preparation and select-swap loader emit it: one layer op."""
    pairs = tuple((1 + i, 1 + size + i) for i in range(size))
    return [SwapLayer(((0, True),), pairs)]


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


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(allow_nan=False, allow_infinity=False),
       n_controls=st.integers(1, 2))
def test_controlled_ry_is_exact_for_any_angle(theta, n_controls):
    """Flip, RY(-theta/2), flip, RY(theta/2) is the controlled RY(theta)
    for every finite angle, with no phase gate after it."""
    gates = controlled_ry_gates(theta, tuple(range(n_controls)), n_controls)
    assert [g.kind for g in gates[1::2]] == [GateKind.RY, GateKind.RY]
    assert len(gates) == 4 and gates[0] == gates[2]
    u = dense_unitary(gates, n_controls + 1)
    assert np.abs(u - controlled(ry_matrix(theta), n_controls)).max() < 1e-12


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
    macro = parallel_cswap_clean(control=0, pairs=((1, 2),), pool=(3, 4))
    u = dense_unitary([macro], 5)
    # Layout: control 0, pair (1, 2), pool (3, 4) starting |0>.
    for c in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                col = (c << 4) | (a << 3) | (b << 2)
                x, y = (b, a) if c else (a, b)
                want = (c << 4) | (x << 3) | (y << 2)
                vec = u[:, col]
                assert abs(vec[want] - 1) < 1e-12


def test_parallel_cswap_control_off_is_identity():
    macro = parallel_cswap_clean(control=0, pairs=((1, 2),), pool=(3, 4))
    u = dense_unitary([macro], 5)
    for col in range(0, 16, 4):
        assert abs(u[col, col] - 1) < 1e-12


def test_parallel_cswap_clean_k2_cost():
    pairs = ((1, 2), (3, 4))
    macro = parallel_cswap_clean(control=0, pairs=pairs, pool=(5, 6, 7, 8))
    assert (macro.t_count, macro.t_depth) == (8, 1)
    with pytest.raises(ParameterError, match="pool of 2k = 4"):
        parallel_cswap_clean(control=0, pairs=pairs, pool=(5, 6, 7))


# -- unary select -------------------------------------------------------------

def test_unary_select_costs():
    macro = unary_select((0,), np.eye(2), slots=(2, 3))
    assert (macro.t_count, macro.t_depth) == (4, 4)
    rows = np.zeros((8, 1))
    macro = unary_select((0, 1, 2), rows, slots=(4,), flag=3)
    assert (macro.t_count, macro.t_depth) == (28, 28)
    with pytest.raises(ParameterError, match="flag"):
        unary_select((0, 1, 2), rows, slots=(4,))
    with pytest.raises(ParameterError, match=r"2\^1 rows of 1 bits"):
        unary_select((0,), rows, slots=(4,))


@pytest.mark.parametrize("s", [1, 2])
def test_unary_select_semantics(s):
    rng = np.random.default_rng(s)
    width = 3
    rows = rng.integers(0, 2, (1 << s, width))
    data_qubits = tuple(range(s, s + width))
    flag = s + width if s >= 2 else None
    macro = unary_select(tuple(range(s)), rows, data_qubits, flag=flag)
    total = s + width + (1 if s >= 2 else 0)
    u = dense_unitary([macro], total)
    for j in range(1 << s):
        col = j << (total - s)
        row_bits = int("".join(map(str, rows[j])), 2)
        want = col | (row_bits << (1 if s >= 2 else 0))
        assert abs(u[want, col] - 1) < 1e-12


def test_and_toffoli_exactness():
    """The measurement-assisted Toffoli a rotation block counts each
    two-control flip as (the tests' reference macro) costs (4, 1) and
    expands into a plain Toffoli: the flip that ``controlled_ry_gates``
    emits."""
    macro = toffoli_macro(0, 1, 2)
    u = dense_unitary([macro], 3)
    assert np.abs(u - toffoli_matrix()).max() < 1e-12
    assert (macro.t_count, macro.t_depth) == (4, 1)
    assert (macro.full, macro.ctrl) == ((2,), (0, 1))
    assert macro.expansion[0] == controlled_ry_gates(0.5, (0, 1), 2)[0]


# -- macro recipes against eagerly built expansions ---------------------------
#
# The reference functions write out each factory's gate list as it was built
# when a macro stored its expansion.

def _ref_cswap_clean(control, pairs, pool):
    copies = tuple(pool)[:len(pairs)]
    ctrl = ((control, True),)
    gates = [Gate(GateKind.FANOUT_CNOT, copies, ctrl)]
    for a, b in pairs:
        gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
    for (a, b), cp in zip(pairs, copies):
        gates.append(Gate(GateKind.TOFFOLI, (a,), ((b, True), (cp, True))))
    for a, b in pairs:
        gates.append(Gate(GateKind.CNOT, (b,), ((a, True),)))
    gates.append(Gate(GateKind.FANOUT_CNOT, copies, ctrl))
    return gates


def _ref_match(select_qubits, value):
    s = len(select_qubits)
    return tuple((q, bool((value >> (s - 1 - i)) & 1))
                 for i, q in enumerate(select_qubits))


def _ref_unary_select(select_qubits, rows, slots, flag):
    s = len(select_qubits)
    write_rows = [[q for q, bit in zip(slots, row) if bit] for row in rows]
    gates = []
    if s == 1:
        for j in range(2):
            targets = tuple(write_rows[j])
            if targets:
                gates.append(Gate(GateKind.FANOUT_CNOT, targets,
                                  ((select_qubits[0], bool(j)),)))
        return gates
    for j in range(1 << s):
        mcx = Gate(GateKind.MCX, (flag,), _ref_match(select_qubits, j))
        gates.append(mcx)
        targets = tuple(write_rows[j])
        if targets:
            gates.append(Gate(GateKind.FANOUT_CNOT, targets, ((flag, True),)))
        gates.append(mcx)
    return gates


def _reference_roles(gates):
    """(full, control-only) qubits of a gate list as sorted tuples: a
    gate's targets change, its controls are read."""
    full, ctrl = set(), set()
    for g in gates:
        full.update(g.targets)
        ctrl.update(q for q, _ in g.controls)
    return tuple(sorted(full)), tuple(sorted(ctrl - full))


def _check_recipe(macro, reference, exact_roles=True):
    """The recipe builds ``reference``; the declared roles cover the
    expansion of the macro and its adjoint, which shares them, and equal
    its classification when ``exact_roles``."""
    inverse = macro.adjoint()
    assert macro.expansion == tuple(reference)
    assert inverse.expansion == tuple(adjoint_ops(macro.expansion))
    assert inverse.adjoint().expansion == macro.expansion
    assert inverse.full is macro.full and inverse.ctrl is macro.ctrl
    assert macro.full == tuple(sorted(macro.full))
    assert macro.ctrl == tuple(sorted(macro.ctrl))
    full, ctrl = _reference_roles(reference)
    assert set(macro.full) >= set(full)
    assert set(macro.full) | set(macro.ctrl) >= set(full) | set(ctrl)
    if exact_roles:
        assert (macro.full, macro.ctrl) == (full, ctrl)


_RECIPES = settings(max_examples=40, deadline=None)


@_RECIPES
@given(data=st.data(), k=st.integers(1, 4))
def test_parallel_cswap_clean_recipe(data, k):
    order = data.draw(st.permutations(range(20)))
    control = order[0]
    pairs = tuple(zip(order[1:1 + k], order[1 + k:1 + 2 * k]))
    pool = tuple(order[1 + 2 * k:1 + 4 * k])
    macro = parallel_cswap_clean(control=control, pairs=pairs, pool=pool)
    _check_recipe(macro, _ref_cswap_clean(control, pairs, pool))


@_RECIPES
@given(data=st.data(), s=st.integers(1, 3))
def test_unary_select_recipe(data, s):
    order = data.draw(st.permutations(range(10)))
    select_qubits, slots = tuple(order[:s]), tuple(order[s:s + 4])
    rows = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=4, max_size=4),
        min_size=1 << s, max_size=1 << s)))
    flag = order[8]
    macro = unary_select(select_qubits, rows, slots, flag=flag)
    assert macro.full == tuple(sorted(slots + ((flag,) if s >= 2 else ())))
    assert macro.ctrl == tuple(sorted(select_qubits))
    # The expansion shows every role once each slot is written by some row;
    # with all-zero rows the declared roles stay the same.
    _check_recipe(macro, _ref_unary_select(select_qubits, rows, slots, flag),
                  exact_roles=rows.any(axis=0).all())


@_RECIPES
@given(data=st.data(), s=st.integers(1, 4))
def test_unary_step_recipe(data, s):
    order = data.draw(st.permutations(range(6)))
    select_qubits, flag = tuple(order[:s]), order[5]
    lo = data.draw(st.integers(0, (1 << s) - 1))
    hi = data.draw(st.integers(0, (1 << s) - 1))
    macro = unary_step(select_qubits, lo, hi, flag)
    reference = [Gate(GateKind.MCX, (flag,), _ref_match(select_qubits, lo)),
                 Gate(GateKind.MCX, (flag,), _ref_match(select_qubits, hi))]
    _check_recipe(macro, reference)
    assert macro.args == (select_qubits, lo, hi, flag)
