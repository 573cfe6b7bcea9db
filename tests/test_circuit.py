"""Circuit IR: construction, counting rules, invariants, text format."""
import numpy as np
import pytest

from blockenc.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    GateKind,
    QubitRegister,
    concat,
    count_resources,
    parse_circuit_text,
    write_circuit_text,
)
from blockenc.decomp import (
    and_toffoli,
    parallel_cswap_clean,
    parallel_cswap_phase_incorrect_gates,
    unary_select,
)


def empty(n=4):
    b = CircuitBuilder()
    b.allocate("q", n)
    return b.build()


def test_append_single_gate():
    c = empty().append(Gate(GateKind.T, (0,)))
    assert len(c.ops) == 1


def test_append_preserves_order():
    c = empty().append(Gate(GateKind.T, (0,)))
    c = c.append(Gate(GateKind.H, (1,)))
    assert [op.kind for op in c.ops] == [GateKind.T, GateKind.H]


def test_append_out_of_range_rejected():
    with pytest.raises(CircuitError):
        empty(4).append(Gate(GateKind.T, (99,)))


def test_gate_qubits_must_be_distinct():
    with pytest.raises(CircuitError):
        empty().append(Gate(GateKind.CNOT, (1,), ((1, True),)))


def test_registers_must_tile():
    with pytest.raises(CircuitError):
        Circuit((QubitRegister("a", 0, 2), QubitRegister("b", 3, 1)), (), 4)


def test_count_empty():
    rep = count_resources(empty())
    assert rep.as_tuple() == (4, 0, 0)


def test_disjoint_t_gates_parallelize():
    c = empty().append(Gate(GateKind.T, (0,))).append(Gate(GateKind.T, (1,)))
    rep = count_resources(c)
    assert rep.t_count == 2
    assert rep.t_depth == 1


def test_same_qubit_t_gates_chain():
    c = empty().append(Gate(GateKind.T, (0,))).append(Gate(GateKind.T, (0,)))
    assert count_resources(c).t_depth == 2


def test_fig20_cswap_cost():
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.extend(parallel_cswap_phase_incorrect_gates(((0, True),), ((1, 2),)))
    rep = count_resources(b.build())
    assert (rep.t_count, rep.t_depth) == (4, 4)


def test_clifford_only_circuit_is_free():
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.CNOT, (1,), ((0, True),))
    b.gate(GateKind.SWAP, (1, 2))
    b.gate(GateKind.FANOUT_CNOT, (1, 2), ((0, True),))
    rep = count_resources(b.build())
    assert (rep.t_count, rep.t_depth) == (0, 0)


def test_ry_weighting():
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.gate(GateKind.RY, 0, angle=0.3)
    b.gate(GateKind.RY, 1, angle=0.4)
    assert count_resources(b.build()).t_count == 0
    rep = count_resources(b.build(), ry_cost=7)
    assert rep.t_count == 14
    assert rep.t_depth == 7


def _random_circuit(rng, n=5, ops=40):
    b = CircuitBuilder()
    b.allocate("q", n)
    for _ in range(ops):
        kinds = [GateKind.T, GateKind.H, GateKind.X, GateKind.S,
                 GateKind.GDG, GateKind.CNOT, GateKind.CSWAP]
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = rng.permutation(n)
        if kind is GateKind.CNOT:
            b.gate(kind, (int(qubits[0]),), ((int(qubits[1]), True),))
        elif kind is GateKind.CSWAP:
            b.gate(kind, (int(qubits[0]), int(qubits[1])),
                   ((int(qubits[2]), bool(rng.integers(2))),))
        else:
            b.gate(kind, int(qubits[0]))
    return b.build()


def test_t_count_additive_under_concat():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = _random_circuit(rng)
        b = _random_circuit(rng)
        joined = concat(a, b)
        ra, rb, rj = (count_resources(x) for x in (a, b, joined))
        assert rj.t_count == ra.t_count + rb.t_count
        assert rj.t_depth <= ra.t_depth + rb.t_depth


def test_t_depth_bounded_by_t_count():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rep = count_resources(_random_circuit(rng))
        assert 0 <= rep.t_depth <= rep.t_count


def test_adjoint_preserves_resources():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = _random_circuit(rng)
        ra = count_resources(c)
        rb = count_resources(c.adjoint())
        assert ra.t_count == rb.t_count
        assert ra.t_depth == rb.t_depth


def test_macro_declared_costs_and_ancilla_high_water():
    b = CircuitBuilder()
    b.allocate("q", 8)
    # Two parallel AndToffolis on disjoint qubits share a T-layer, so the
    # scratch ancilla demand peaks at 2.
    b.add(and_toffoli(0, 1, 2))
    b.add(and_toffoli(3, 4, 5))
    rep = count_resources(b.build())
    assert rep.t_count == 8
    assert rep.t_depth == 1
    assert rep.qubits == 8 + 2
    # Sequential on shared qubits: depth adds, ancillas are reused.
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.add(and_toffoli(0, 1, 2))
    b.add(and_toffoli(0, 1, 2))
    rep = count_resources(b.build())
    assert rep.t_depth == 2
    assert rep.qubits == 3 + 1


def test_unary_select_costs():
    macro = unary_select(s=1, write_rows=[(2,), (3,)], select_qubits=(0,))
    assert (macro.t_count, macro.t_depth, macro.extra_ancillas) == (4, 4, 0)
    macro = unary_select(s=3, write_rows=[() for _ in range(8)])
    assert (macro.t_count, macro.t_depth, macro.extra_ancillas) == (28, 28, 2)


def test_parallel_cswap_clean_cost():
    macro = parallel_cswap_clean(num_pairs=2)
    assert (macro.t_count, macro.t_depth, macro.extra_ancillas) == (8, 1, 4)


def test_breakdown_by_stage():
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.begin_stage("first")
    b.gate(GateKind.T, 0)
    b.begin_stage("second")
    b.gate(GateKind.T, 0)
    b.gate(GateKind.T, 1)
    rep = count_resources(b.build(), with_breakdown=True)
    assert rep.breakdown["first"] == (1, 1)
    assert rep.breakdown["second"] == (2, 1)


def test_text_format_round_trip():
    b = CircuitBuilder()
    b.allocate("addr", 2)
    b.allocate("data", 4)
    b.gate(GateKind.CSWAP, (4, 5), ((3, True),))
    b.gate(GateKind.RY, 0, angle=1.5707963)
    b.gate(GateKind.MCX, (4,), ((0, False), (1, True)))
    b.add(unary_select(select_qubits=(0, 1),
                       write_rows=[(2,), (), (3,), (2, 3)],
                       footprint=(2, 3, 4, 5)))
    b.add(parallel_cswap_clean(control=0, pairs=((2, 3),), ancillas=(4, 5)))
    circuit = b.build()
    text = write_circuit_text(circuit)
    parsed = parse_circuit_text(text)
    assert parsed.total_qubits == circuit.total_qubits
    assert parsed.registers == circuit.registers
    assert list(parsed.ops) == list(circuit.ops)
    assert count_resources(parsed).as_tuple() == count_resources(circuit).as_tuple()


def test_angle_serialization_precision():
    b = CircuitBuilder()
    b.allocate("q", 1)
    b.gate(GateKind.RY, 0, angle=0.12345678901234)
    text = write_circuit_text(b.build())
    parsed = parse_circuit_text(text)
    assert abs(parsed.ops[0].angle - 0.12345678901234) < 1e-11
