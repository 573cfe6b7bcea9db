"""Circuit IR: construction, counting rules, invariants, text format."""
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blockenc.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    CliffordLayer,
    Compound,
    Gate,
    GateKind,
    Macro,
    MacroKind,
    QubitRegister,
    RotationBlock,
    SwapLayer,
    SwapNetwork,
    adjoint_ops,
    count_resources,
    count_resources_at,
    parse_circuit_text,
    write_circuit_text,
)
from blockenc.decomp import (
    controlled_ry_gates,
    parallel_cswap_clean,
    unary_select,
    unary_step,
)


def empty(n=4, ops=()):
    b = CircuitBuilder()
    b.allocate("q", n)
    b.extend(ops)
    return b.build()


def test_append_single_gate():
    c = empty(ops=[Gate(GateKind.T, (0,))])
    assert len(c.ops) == 1


def test_append_preserves_order():
    c = empty(ops=[Gate(GateKind.T, (0,)), Gate(GateKind.H, (1,))])
    assert [op.kind for op in c.ops] == [GateKind.T, GateKind.H]


def test_append_out_of_range_rejected():
    with pytest.raises(CircuitError):
        empty(4, [Gate(GateKind.T, (99,))])


def test_gate_qubits_must_be_distinct():
    with pytest.raises(CircuitError):
        empty(ops=[Gate(GateKind.CNOT, (1,), ((1, True),))])


def test_registers_must_tile():
    with pytest.raises(CircuitError, match="gap before b"):
        Circuit((QubitRegister("a", 0, 2), QubitRegister("b", 3, 1)), (), 4)
    with pytest.raises(CircuitError, match="must tile \\[0, total_qubits\\)"):
        Circuit((QubitRegister("a", 0, 2), QubitRegister("b", 2, 1)), (), 4)


def test_maybe_allocate_gives_qubits_or_none():
    b = CircuitBuilder()
    b.allocate("a", 2)
    assert b.maybe_allocate("none", 0) == ()
    assert b.maybe_allocate("b", 3) == (2, 3, 4)
    assert [r.name for r in b.build().registers] == ["a", "b"]


def test_count_empty():
    rep = count_resources(empty())
    assert rep.as_tuple() == (4, 0, 0)


def test_disjoint_t_gates_parallelize():
    c = empty(ops=[Gate(GateKind.T, (0,)), Gate(GateKind.T, (1,))])
    rep = count_resources(c)
    assert rep.t_count == 2
    assert rep.t_depth == 1


def test_same_qubit_t_gates_chain():
    c = empty(ops=[Gate(GateKind.T, (0,)), Gate(GateKind.T, (0,))])
    assert count_resources(c).t_depth == 2


def test_fig20_cswap_cost():
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.add(SwapLayer(((0, True),), ((1, 2),)))
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


@pytest.mark.parametrize("ry", [-1, 2.5, 2.0, "3", None])
def test_ry_must_be_a_non_negative_integer(ry):
    circuit = empty(1, [Gate(GateKind.RY, (0,), (), 0.3)])
    with pytest.raises(ValueError, match="non-negative integer"):
        count_resources(circuit, ry_cost=ry)
    with pytest.raises(ValueError, match="non-negative integer"):
        count_resources_at(circuit, (1, ry))
    # R_y 0 (the default) and integers of any type count.
    assert count_resources(circuit).as_tuple() == (1, 0, 0)
    assert count_resources(circuit, np.int64(3)).as_tuple() == (1, 3, 3)


def _random_circuit(rng, n=5, ops=40):
    b = CircuitBuilder()
    b.allocate("q", n)
    for _ in range(ops):
        kinds = [GateKind.T, GateKind.H, GateKind.X, GateKind.S,
                 GateKind.GDG, GateKind.CNOT, "layer"]
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = rng.permutation(n)
        if kind is GateKind.CNOT:
            b.gate(kind, (int(qubits[0]),), ((int(qubits[1]), True),))
        elif kind == "layer":
            b.add(SwapLayer(((int(qubits[2]), bool(rng.integers(2))),),
                            ((int(qubits[0]), int(qubits[1])),)))
        else:
            b.gate(kind, int(qubits[0]))
    return b.build()


def test_t_count_additive_under_concat():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = _random_circuit(rng)
        b = _random_circuit(rng)
        joined = Circuit(a.registers, a.ops + b.ops, a.total_qubits)
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
        rb = count_resources(Circuit(c.registers, adjoint_ops(c.ops),
                                     c.total_qubits))
        assert ra.t_count == rb.t_count
        assert ra.t_depth == rb.t_depth


def test_macro_declared_costs():
    b = CircuitBuilder()
    b.allocate("q", 8)
    # Two parallel AndToffolis on disjoint qubits share a T-layer.
    b.add(toffoli_macro(0, 1, 2))
    b.add(toffoli_macro(3, 4, 5))
    rep = count_resources(b.build())
    assert rep.t_count == 8
    assert rep.t_depth == 1
    assert rep.qubits == 8
    # Sequential on shared qubits: depth adds.
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.add(toffoli_macro(0, 1, 2))
    b.add(toffoli_macro(0, 1, 2))
    rep = count_resources(b.build())
    assert rep.t_depth == 2
    assert rep.qubits == 3


def test_breakdown_by_stage():
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.begin_stage("first")
    b.gate(GateKind.T, 0)
    b.begin_stage("second")
    b.gate(GateKind.T, 0)
    b.gate(GateKind.T, 1)
    rep = count_resources(b.build())
    assert rep.breakdown["first"] == (1, 1)
    assert rep.breakdown["second"] == (2, 1)


def test_text_format_round_trip():
    b = CircuitBuilder()
    b.allocate("addr", 2)
    b.allocate("data", 5)
    b.gate(GateKind.TOFFOLI, (5,), ((3, True), (4, False)))
    b.gate(GateKind.RY, 0, angle=1.5707963)
    b.gate(GateKind.MCX, (4,), ((0, False), (1, True)))
    b.add(unary_select((0, 1), [(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0),
                                (1, 1, 0, 0)], slots=(2, 3, 4, 5), flag=6))
    b.add(parallel_cswap_clean(control=0, pairs=((2, 3),), pool=(4, 5)))
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


def test_text_round_trip_keeps_stages():
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.gate(GateKind.H, 0)
    b.begin_stage("first")
    b.gate(GateKind.T, 0)
    b.begin_stage("second")
    b.gate(GateKind.T, 0)
    b.gate(GateKind.T, 1)
    b.end_stage()
    b.gate(GateKind.X, 1)
    circuit = b.build()
    text = write_circuit_text(circuit)
    assert "stage first 1 2\nstage second 2 4\n" in text
    parsed = parse_circuit_text(text)
    assert parsed.stages == circuit.stages == (("first", 1, 2),
                                               ("second", 2, 4))
    assert (count_resources(parsed).breakdown
            == {"first": (1, 1), "second": (2, 1)})


def test_text_without_stage_lines_parses():
    parsed = parse_circuit_text("qubits 1\nreg q 0 1\ng T t=0\n")
    assert parsed.stages == ()
    assert count_resources(parsed).breakdown == {}


@pytest.mark.parametrize("stage", ["a 0 3", "a -1 1", "a 2 1"])
def test_stage_bounds_outside_ops_rejected(stage):
    with pytest.raises(CircuitError, match="stage a"):
        parse_circuit_text(f"qubits 1\nreg q 0 1\nstage {stage}\n"
                           "g T t=0\ng T t=0\n")


def test_overlapping_stages_rejected():
    with pytest.raises(CircuitError, match="stage b"):
        Circuit((QubitRegister("q", 0, 1),), [Gate(GateKind.T, (0,))] * 3,
                1, [("a", 0, 2), ("b", 1, 3)])


def test_equal_lines_share_one_op():
    parsed = parse_circuit_text("qubits 2\nreg q 0 2\n" + "g T t=0\n" * 3
                                + "g CNOT c=+0 t=1\ng T t=0\n")
    assert len(parsed.ops) == 5
    assert len({id(op) for op in parsed.ops}) == 2


def test_repeated_out_of_range_line_rejected():
    text = "qubits 2\nreg q 0 2\n" + "g T t=0\n" + "g CNOT c=+0 t=5\n" * 3
    with pytest.raises(CircuitError, match=r"qubit 5 out of range \[0, 2\)"):
        parse_circuit_text(text)


def test_invalid_line_seen_once_rejected():
    text = "qubits 2\nreg q 0 2\n" + "g T t=0\n" * 4 + "g CNOT t=1\n"
    with pytest.raises(CircuitError, match="CNOT expects 1 control"):
        parse_circuit_text(text)


def test_out_of_range_macro_rejected():
    text = ("qubits 3\nreg q 0 3\n"
            + "m UNARY_STEP s=0,1 from=0 to=1 flag=2 inv=0\n"
            + "m UNARY_STEP s=0,1 from=0 to=1 flag=7 inv=0\n" * 2)
    with pytest.raises(CircuitError, match=r"qubit 7 out of range \[0, 3\)"):
        parse_circuit_text(text)


@pytest.mark.parametrize("line", [
    "qubits x",
    "g BOGUS t=0",
    "g T t=a",
    "stage a 0",
    "l c=-0 p=1:2 layered=0",
    "l c=-0 p=1:2:0 layered=0 inv=0",
    # Angles that ``repr`` would write back differently.
    "r q=0:1 a=1_0 fan=- inv=0",
    "r q=0:1 a=0.50 fan=- inv=0",
    "g RY t=0 a=1_0",
    "g RY t=0 a=0.30",
    "g RY t=0 a=1",
    # A swap network line without its pool, or with a bad flag.
    "w c=0 s=1,2 inv=0",
    "w c=0 s=1,2 pool=- inv=2",
    # A second qubits header, with another count or the same one.
    "qubits 4",
    "qubits 3",
    # A Clifford layer without its targets, or with an unknown kind.
    "c k=X inv=0",
    "c k=BOGUS t=0 inv=0",
    # A CZ, a gate kind no generator emits.
    "g CZ t=0,1",
    # Rotation block slots of mixed width, also where the integer count is
    # a multiple of the first slot's width, or with an empty slot.
    "r q=0:1,2:3:4 a=0.5,0.5 fan=- inv=0",
    "r q=0:1:2,3:4:5:6,7:8 a=0.5,0.5,0.5 fan=- inv=0",
    "r q=0:1:2,3:4 a=0.5,0.5 fan=- inv=0",
    "r q=0:1,,2:3 a=0.5,0.5 fan=- inv=0",
])
def test_malformed_line_raises_circuit_error(line):
    text = "qubits 3\nreg q 0 3\n" + line + "\n"
    with pytest.raises(CircuitError, match=f"unparseable line: {line!r}"):
        parse_circuit_text(text)


@pytest.mark.parametrize("line, message", [
    ("g T t=0 bogus=1", "unknown gate field 'bogus'"),
    ("l c=+0 p=1:2 layered=0 inv=0 bogus=1",
     "unknown swap layer field 'bogus'"),
    ("l c=+0,+1 p=2:1 layered=0 inv=0", "exactly one control"),
    ("l c=+0 p=1:7 layered=1 inv=0", r"qubit 7 out of range \[0, 3\)"),
    ("r q=0:1 a=0.5 fan=- inv=0 bogus=1",
     "unknown rotation block field 'bogus'"),
    ("r q=0:1 a=0.5 inv=0", "unparseable line"),
    ("r q=0:1 a=0.5,0.25 fan=- inv=0", "one angle per slot"),
    ("r q=0:1 a=nan fan=- inv=0", "finite"),
    ("r q=0:1:2 a=0.5 fan=1 inv=0", "distinct"),
    ("w c=0 s=1,2 pool=- inv=0 bogus=1", "unknown swap network field 'bogus'"),
    ("c k=X t=0 inv=0 bogus=1", "unknown Clifford layer field 'bogus'"),
    ("g RY t=0 a=nan", "RY angles must be finite"),
    ("g RY t=0 a=inf", "RY angles must be finite"),
    ("g RY t=0 a=-inf", "RY angles must be finite"),
])
def test_unknown_field_rejected(line, message):
    text = "qubits 3\nreg q 0 3\n" + line + "\n"
    with pytest.raises(CircuitError, match=message):
        parse_circuit_text(text)


def _op_fields(op):
    return type(op), op.fields(), op.inverted, op.qubits(), op.expansion


@pytest.mark.parametrize("line", [
    "l c=+0 p=1:2,3:4 layered=1 inv=1",
    "w c=0 s=1,2 pool=3,4 inv=1",
    "r q=0:1,2:3 a=0.5,-0.25 fan=4 inv=1",
    "c k=H t=0,2 inv=1",
    "m UNARY_STEP s=0,1 from=0 to=1 flag=2 inv=1",
    "m PARALLEL_CSWAP_CLEAN c=0 p=1:2 pool=3,4 inv=1",
])
def test_twin_lines_parse_as_each_line_alone(line):
    """A compound line after its twin, the same line with the other
    ``inv``, is parsed as the twin's adjoint and shares its fields; in
    either order each op equals its line parsed alone.  A twin spelled
    ``inv=2`` still raises."""
    twin = line[:-1] + "0"
    alone = {text: _op_fields(parse_circuit_text(f"qubits 5\n{text}\n").ops[0])
             for text in (line, twin)}
    for first, second in ((line, twin), (twin, line)):
        ops = parse_circuit_text(f"qubits 5\n{first}\n{second}\n").ops
        assert [_op_fields(op) for op in ops] == [alone[first], alone[second]]
        assert ops[0].key() == ops[1].key()
        bad = first[:-1] + "2"
        with pytest.raises(CircuitError,
                           match=re.escape(f"unparseable line: {bad!r}")):
            parse_circuit_text(f"qubits 5\n{second}\n{bad}\n")


@pytest.mark.parametrize("header", ["qubits -1", "qubits 0"])
def test_qubits_header_must_be_positive(header):
    with pytest.raises(CircuitError, match=f"unparseable line: {header!r}"):
        parse_circuit_text(header + "\n")


def test_builder_rejects_a_non_finite_angle():
    """Every RY is checked, also one after a finite RY on its qubit."""
    for angle in (math.nan, math.inf, -math.inf):
        for before in ((), (0.5,)):
            b = CircuitBuilder()
            b.allocate("q", 1)
            for a in (*before, angle):
                b.gate(GateKind.RY, 0, angle=a)
            with pytest.raises(CircuitError,
                               match="RY angles must be finite"):
                b.build()


def test_circuit_checks_its_ops(monkeypatch):
    """A circuit built directly holds only checked ops, so counting never
    meets an unchecked one; an op and its adjoint, which share their
    fields, are checked once."""
    registers = [QubitRegister("q", 0, 2)]
    with pytest.raises(CircuitError, match=r"qubit 5 out of range \[0, 2\)"):
        count_resources(Circuit(registers, [Gate(GateKind.T, (5,))], 2))
    with pytest.raises(CircuitError, match=r"CNOT expects 1 control\(s\)"):
        Circuit(registers, [Gate(GateKind.CNOT, (1,))], 2)
    calls = []
    validate = SwapLayer.validate
    monkeypatch.setattr(SwapLayer, "validate",
                        lambda op: calls.append(op) or validate(op))
    layer = SwapLayer(((0, True),), ((1, 2),))
    Circuit([QubitRegister("q", 0, 3)], [layer, layer.adjoint(), layer], 3)
    assert len(calls) == 1


def test_count_schedules_each_op_once(monkeypatch):
    """One pass calls each op's ``schedule`` once for every R_y value: on
    the circuit's frontiers, and inside a stage on a stage-local set too.
    The circuit holds a gate, a macro and every compound kind, inside
    stages, between them and after them."""
    layer = SwapLayer(((0, True),), ((1, 2),))
    ops = [Gate(GateKind.T, (0,)), layer,
           parallel_cswap_clean(5, ((1, 2),), (3, 4)),
           RotationBlock(((0,), (1,), (2,)), [0.5], fanout=5),
           CliffordLayer(GateKind.H, (3, 4)),
           SwapNetwork((0,), (1, 2), (3, 4)).adjoint(),
           layer.adjoint(), Gate(GateKind.RY, (3,), (), 0.5)]
    circuit = Circuit([QubitRegister("q", 0, 6)], ops, 6,
                      [("a", 1, 4), ("b", 4, 4), ("a", 5, 7)])
    rys = (1, 10, 30)
    want = [count_resources(circuit, ry) for ry in rys]
    calls = []
    for cls in (Gate, *Compound.__subclasses__()):
        def counted(op, frontiers, schedule=cls.schedule):
            calls.append((op, [ry for ry, _, _ in frontiers]))
            return schedule(op, frontiers)
        monkeypatch.setattr(cls, "schedule", counted)
    assert count_resources_at(circuit, rys) == want
    assert len(calls) == len(ops)
    for i, (op, (called, frontier_rys)) in enumerate(zip(ops, calls)):
        staged = 1 <= i < 4 or 5 <= i < 7
        assert called is op
        assert frontier_rys == list(rys) * (2 if staged else 1)


@settings(max_examples=60, deadline=None)
@given(angle=st.floats(allow_nan=False),
       spelling=st.sampled_from(("{!r}", "{:.17g}", "{:.12g}", "{:e}",
                                 "{!r}0", "+{!r}")))
def test_accepted_block_line_writes_back_unchanged(angle, spelling):
    text = ("qubits 2\nreg q 0 2\nr q=0:1 a=" + spelling.format(angle)
            + " fan=- inv=0\n")
    try:
        parsed = parse_circuit_text(text)
    except CircuitError:
        assert spelling != "{!r}" or not math.isfinite(angle)
    else:
        assert write_circuit_text(parsed) == text


@settings(max_examples=60, deadline=None)
@given(angle=st.floats(allow_nan=False),
       spelling=st.sampled_from(("{!r}", "{:.17g}", "{:.12g}", "{:e}",
                                 "{!r}0", "+{!r}")))
@example(angle=0.1 + 0.2, spelling="{!r}")
def test_accepted_gate_line_writes_back_unchanged(angle, spelling):
    """A gate angle is written by ``repr`` and read only in that spelling:
    0.1 + 0.2 writes back as 0.30000000000000004, not as 0.3.  An infinite
    angle is rejected in every spelling."""
    text = "qubits 1\nreg q 0 1\ng RY t=0 a=" + spelling.format(angle) + "\n"
    try:
        parsed = parse_circuit_text(text)
    except CircuitError:
        assert spelling != "{!r}" or not math.isfinite(angle)
    else:
        assert write_circuit_text(parsed) == text
        assert spelling != "{!r}" or parsed.ops[0].angle == angle


_UNPARSEABLE = "unparseable line"


@pytest.mark.parametrize("line, message", [
    # A missing field, a factory argument of the wrong arity, a bad flag.
    ("m UNARY_STEP s=0,1 from=0 flag=2 inv=0", _UNPARSEABLE),
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2 inv=0", _UNPARSEABLE),
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2:3 pool=4,5 inv=0", _UNPARSEABLE),
    ("m UNARY_STEP s=0,1 from=0 to=1 flag=2 inv=2", _UNPARSEABLE),
    ("m BOGUS q=0,1,2 inv=0", _UNPARSEABLE),
    # The deleted AND_TOFFOLI kind, in any form.
    ("m AND_TOFFOLI q=0,1,2 inv=0", _UNPARSEABLE),
    ("m AND_TOFFOLI inv=0", _UNPARSEABLE),
    ("m AND_TOFFOLI q=0,1 inv=0", _UNPARSEABLE),
    ("m AND_TOFFOLI q=0,1,2 inv=2", _UNPARSEABLE),
    # Unknown fields, the older line with its expansion among them.
    ("m UNARY_STEP s=0,1 from=0 to=1 flag=2 bogus=1 inv=0",
     "unknown macro field 'bogus'"),
    ("m UNARY_STEP tc=4 td=4 fq=2 cq=0,1 p=- ops=MCX;c=-0,-1;t=2",
     "unknown macro field 'cq'"),
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2 pool=3,4 flag=5 inv=0",
     "unknown macro field 'flag'"),
    # Arguments the factory rejects: a pool shorter than 2k, rows hex of
    # the wrong length or not hex, and s >= 2 without a flag.
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2,3:4 pool=5,6,7 inv=0", _UNPARSEABLE),
    ("m UNARY_SELECT s=0 slots=1,2 flag=- rows=00,0000 inv=0", _UNPARSEABLE),
    ("m UNARY_SELECT s=0 slots=1,2 flag=- rows=00 inv=0", _UNPARSEABLE),
    ("m UNARY_SELECT s=0 slots=1,2 flag=- rows=00,zz inv=0", _UNPARSEABLE),
    ("m UNARY_SELECT s=0,1 slots=3 flag=- rows=00,00,80,80 inv=0",
     _UNPARSEABLE),
    # Qubits out of range or repeated.
    ("m UNARY_STEP s=0,1 from=0 to=1 flag=9 inv=1",
     r"qubit 9 out of range \[0, 8\)"),
    ("m UNARY_SELECT s=8 slots=1 flag=- rows=00,80 inv=0",
     r"qubit 8 out of range \[0, 8\)"),
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2 pool=8,3 inv=0",
     r"qubit 8 out of range \[0, 8\)"),
    ("m UNARY_STEP s=0,0 from=0 to=1 flag=2 inv=0", "must be distinct"),
    ("m PARALLEL_CSWAP_CLEAN c=1 p=1:2 pool=3,4 inv=0",
     "must be distinct"),
    ("m UNARY_STEP s=0,1 from=0 to=1 flag=1 inv=0",
     "must be distinct"),
    ("m UNARY_SELECT s=0,1 slots=2,3 flag=3 rows=00,00,40,c0 inv=0",
     "must be distinct"),
    # The Toffoli scratch half of the pool: in range, distinct, exactly k.
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2 pool=3,99 inv=0",
     r"qubit 99 out of range \[0, 8\)"),
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2 pool=3,1 inv=0", "must be distinct"),
    ("m PARALLEL_CSWAP_CLEAN c=0 p=1:2 pool=3,4,5 inv=0", _UNPARSEABLE),
    # Lines that would write back differently: a select value outside
    # [0, 2^s), and a row with a padding bit set.
    ("m UNARY_STEP s=0,1 from=9 to=2 flag=5 inv=0", _UNPARSEABLE),
    ("m UNARY_STEP s=0,1 from=0 to=-1 flag=5 inv=0", _UNPARSEABLE),
    ("m UNARY_SELECT s=0 slots=1,2 flag=- rows=01,00 inv=0", _UNPARSEABLE),
])
def test_bad_macro_line_rejected(line, message):
    text = "qubits 8\nreg q 0 8\ng T t=0\n" + line + "\n"
    with pytest.raises(CircuitError, match=message):
        parse_circuit_text(text)


def test_builder_checks_macro_qubits_are_distinct():
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.add(unary_step((0, 0), 0, 1, 2))
    with pytest.raises(CircuitError, match="distinct"):
        b.build()


def test_macro_line_writes_declared_roles():
    """A macro line holds its factory's arguments; the factory declares the
    cost and the roles."""
    b = CircuitBuilder()
    b.allocate("q", 13)
    b.add(unary_select((0,), [(0, 0), (0, 0)], slots=(2, 3)))
    b.add(parallel_cswap_clean(4, ((5, 6),), (7, 8)).adjoint())
    b.add(unary_step((4, 5), 1, 2, 9))
    b.add(unary_select((10, 11), np.eye(4, 9, 5, dtype=int), slots=range(9),
                       flag=12))
    circuit = b.build()
    lines = write_circuit_text(circuit).splitlines()[2:]
    assert lines == [
        "m UNARY_SELECT s=0 slots=2,3 flag=- rows=00,00 inv=0",
        "m PARALLEL_CSWAP_CLEAN c=4 p=5:6 pool=7,8 inv=1",
        "m UNARY_STEP s=4,5 from=1 to=2 flag=9 inv=0",
        "m UNARY_SELECT s=10,11 slots=0,1,2,3,4,5,6,7,8 flag=12 "
        "rows=0400,0200,0100,0080 inv=0"]
    assert list(parse_circuit_text(write_circuit_text(circuit)).ops) == list(
        circuit.ops)
    # The all-zero select still reads its select qubit: the T on qubit 0
    # waits for it.
    b = CircuitBuilder()
    b.allocate("q", 6)
    b.add(parallel_cswap_clean(0, ((1, 3),), (4, 5)))
    b.add(unary_select((0,), [(0, 0), (0, 0)], slots=(2, 3)))
    b.gate(GateKind.T, 0)
    circuit = b.build()
    assert count_resources(circuit).t_depth == 6
    assert count_resources(parse_circuit_text(
        write_circuit_text(circuit))).t_depth == 6


def test_write_keeps_signed_zero_angles():
    b = CircuitBuilder()
    b.allocate("q", 1)
    for angle in (0.0, -0.0, 0.0, 1.0, -0.0):
        b.gate(GateKind.RY, 0, angle=angle)
    lines = write_circuit_text(b.build()).splitlines()[2:]
    assert lines == ["g RY t=0 a=0.0", "g RY t=0 a=-0.0", "g RY t=0 a=0.0",
                     "g RY t=0 a=1.0", "g RY t=0 a=-0.0"]


def test_builder_checks_each_distinct_gate():
    """The built circuit checks every gate against the final register
    total: a qubit allocated after its gate is in range."""
    def built(*gates, width=2):
        b = CircuitBuilder()
        b.allocate("q", width)
        b.gate(GateKind.RY, 0, angle=0.5)
        b.gate(GateKind.RY, 0, angle=0.7)
        b.extend(gates)
        return b.build()

    with pytest.raises(CircuitError, match="angle mismatch"):
        built(Gate(GateKind.RY, (0,)))
    with pytest.raises(CircuitError, match="out of range"):
        built(Gate(GateKind.T, (2,)))
    with pytest.raises(CircuitError, match="distinct"):
        built(Gate(GateKind.CNOT, (1,), ((1, True),)))
    assert len(built(Gate(GateKind.T, (2,)), width=3).ops) == 3
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.gate(GateKind.T, 2)
    b.allocate("r", 1)
    assert len(b.build().ops) == 1


# ---------------------------------------------------------------------------
# Properties: text round trip and one-pass stage breakdown
# ---------------------------------------------------------------------------

_WIDTH = 6
_SHAPES = {  # kind -> (targets, controls); None means "drawn"
    GateKind.CNOT: (1, 1), GateKind.FANOUT_CNOT: (None, 1),
    GateKind.SWAP: (2, 0),
    GateKind.TOFFOLI: (1, 2), GateKind.MCX: (1, None),
}


@st.composite
def _gates(draw, width=_WIDTH):
    kind = draw(st.sampled_from(list(GateKind)))
    n_t, n_c = _SHAPES.get(kind, (1, 0))
    if n_t is None:
        n_t = draw(st.integers(1, 3))
    if n_c is None:
        n_c = draw(st.integers(1, width - n_t))
    order = draw(st.permutations(range(width)))
    controls = tuple((q, draw(st.booleans())) for q in order[n_t:n_t + n_c])
    angle = None
    if kind is GateKind.RY:
        angle = draw(st.one_of(st.sampled_from((0.0, -0.0, math.pi)),
                               st.floats(-2 * math.pi, 2 * math.pi)))
    return Gate(kind, order[:n_t], controls, angle)


def _stored(gates):
    return gates


def op_line(op):
    """The line ``write_circuit_text`` writes for ``op``, alone in a
    circuit."""
    circuit = Circuit([], [op], max(op.qubits()) + 1)
    return write_circuit_text(circuit).splitlines()[-1]


@st.composite
def _macros(draw, gates, width=_WIDTH):
    """A macro over drawn gates whose roles cover its expansion, plus at
    least one drawn qubit declared full or control-only."""
    expansion = draw(st.lists(st.sampled_from(gates), max_size=4))
    full = {q for g in expansion for q in g.targets}
    read = {q for g in expansion for q in g.qubits()}
    for q in draw(st.lists(st.integers(0, width - 1), min_size=1,
                           max_size=3, unique=True)):
        (full if draw(st.booleans()) else read).add(q)
    return Macro(draw(st.sampled_from(list(MacroKind))), _stored,
                 (tuple(expansion),), draw(st.integers(0, 8)),
                 draw(st.integers(0, 8)), full, read - full)


@st.composite
def _factory_macros(draw, width=_WIDTH):
    """A macro from one of the three factories on distinct drawn qubits,
    forward or adjoint: the macros the text can write."""
    order = draw(st.permutations(range(width)))
    kind = draw(st.sampled_from(list(MacroKind)))
    if kind is MacroKind.PARALLEL_CSWAP_CLEAN:
        k = draw(st.integers(1, (width - 1) // 4))
        macro = parallel_cswap_clean(
            order[0], tuple(zip(order[1:1 + k], order[1 + k:1 + 2 * k])),
            order[1 + 2 * k:1 + 4 * k])
    elif kind is MacroKind.UNARY_STEP:
        s = draw(st.integers(1, 3))
        values = st.integers(0, (1 << s) - 1)
        macro = unary_step(order[:s], draw(values), draw(values), order[s])
    else:
        s = draw(st.integers(1, 2))
        slots = order[s + 1:s + 1 + draw(st.integers(0, width - s - 1))]
        rows = draw(st.lists(st.lists(st.booleans(), min_size=len(slots),
                                      max_size=len(slots)),
                             min_size=1 << s, max_size=1 << s))
        macro = unary_select(order[:s], np.array(rows, dtype=bool), slots,
                             order[s])
    return macro.adjoint() if draw(st.booleans()) else macro


@st.composite
def _hub_rotations(draw):
    """A one-slot rotation block (one or two controls) whose first control
    is qubit 0: blocks drawn this way share a control-only qubit, where the
    schedule must let them commute."""
    order = draw(st.permutations(range(1, _WIDTH)))
    slot = (0, *order[:draw(st.integers(1, 2))])
    return RotationBlock([(q,) for q in slot],
                         [draw(st.floats(-math.pi, math.pi))])


@st.composite
def _shared_target_blocks(draw):
    """A rotation block of two or more slots (one control each or two
    each) on one target, forward or adjoint: the order of its slots sets
    its schedule."""
    m = draw(st.integers(1, 2))
    order = draw(st.permutations(range(_WIDTH)))
    k = draw(st.integers(2, (_WIDTH - 1) // m))
    block = RotationBlock(
        [*(order[1 + j:1 + k * m:m] for j in range(m)), (order[0],) * k],
        draw(st.lists(st.floats(-math.pi, math.pi), min_size=k, max_size=k)))
    return block.adjoint() if draw(st.booleans()) else block


_CLIFFORD_KINDS = (GateKind.X, GateKind.Z, GateKind.H)


@st.composite
def _clifford_layers(draw, width=_WIDTH):
    """An X, Z or H layer on 1-4 distinct drawn qubits, forward or
    adjoint."""
    targets = draw(st.permutations(range(width)))[:draw(st.integers(1, 4))]
    layer = CliffordLayer(draw(st.sampled_from(_CLIFFORD_KINDS)), targets)
    return layer.adjoint() if draw(st.booleans()) else layer


@st.composite
def _swap_layers(draw, width=_WIDTH):
    """A default or layered swap layer of one or more pairs on drawn qubits
    under either control polarity, forward or adjoint."""
    k = draw(st.integers(1, (width - 1) // 2))
    order = draw(st.permutations(range(width)))
    layer = SwapLayer(((order[0], draw(st.booleans())),),
                      tuple(zip(order[1:1 + k], order[1 + k:1 + 2 * k])),
                      layered=draw(st.booleans()))
    return layer.adjoint() if draw(st.booleans()) else layer


@st.composite
def _one_control_networks(draw):
    """A one-control swap network (two slots, a pool of two) on five drawn
    qubits, forward or adjoint."""
    order = draw(st.permutations(range(_WIDTH)))
    network = SwapNetwork(order[:1], order[1:3], order[3:5])
    return network.adjoint() if draw(st.booleans()) else network


@st.composite
def _staged_circuits(draw, factory=False):
    """A circuit drawn from a small op pool, so lines repeat heavily, with
    1-3 registers and ordered, disjoint stages whose names may repeat.  The
    pool always holds two or more rotation blocks that share control qubit
    0; it may hold rotation blocks whose slots share a target, Clifford
    layers, swap layers and a one-control swap network, and its macros are
    the factories' when ``factory``.  It may also hold the adjoints of its
    compound ops, which share their fields."""
    gates = draw(st.lists(_gates(), min_size=1, max_size=5))
    macros = _factory_macros() if factory else _macros(gates)
    pool = (gates + draw(st.lists(_hub_rotations(), min_size=2, max_size=3))
            + draw(st.lists(_shared_target_blocks(), max_size=2))
            + draw(st.lists(_clifford_layers(), max_size=2))
            + draw(st.lists(_swap_layers(), max_size=2))
            + draw(st.lists(_one_control_networks(), max_size=1))
            + draw(st.lists(macros, max_size=3)))
    compounds = st.sampled_from(pool[len(gates):])
    pool += [op.adjoint() for op in draw(st.lists(compounds, max_size=3))]
    ops = draw(st.lists(st.sampled_from(pool), max_size=60))
    cuts = sorted(draw(st.lists(st.integers(1, _WIDTH - 1), max_size=2,
                                unique=True)))
    edges = [0, *cuts, _WIDTH]
    registers = [QubitRegister(f"r{i}", lo, hi - lo)
                 for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    bounds = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=8)))
    names = draw(st.lists(st.sampled_from(("load", "sp", "swap")),
                          min_size=len(bounds) // 2,
                          max_size=len(bounds) // 2))
    stages = [(name, bounds[2 * i], bounds[2 * i + 1])
              for i, name in enumerate(names)]
    return Circuit(registers, ops, _WIDTH, stages)


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _same_ops(ops, others):
    """Equal op for op; a compound op other than a macro, which defines no
    equality, by its text fields (a block's angles exactly) and ``inv``."""
    def key(op):
        if isinstance(op, Compound) and not isinstance(op, Macro):
            return op.fields(), op.inverted
        return op
    return list(map(key, ops)) == list(map(key, others))


@_PROPERTY
@given(circuit=_staged_circuits(factory=True), ry=st.integers(0, 40))
def test_text_round_trip_property(circuit, ry):
    text = write_circuit_text(circuit)
    parsed = parse_circuit_text(text)
    assert parsed.registers == circuit.registers
    assert parsed.stages == circuit.stages
    assert _same_ops(parsed.ops, circuit.ops)
    assert write_circuit_text(parsed) == text
    # Ops that share their fields parse to ops that share them too.
    keys = [{op.key() for op in c.ops if isinstance(op, Compound)}
            for c in (parsed, circuit)]
    assert len(keys[0]) <= len(keys[1])
    assert ([(op.full, op.ctrl) for op in parsed.ops if isinstance(op, Macro)]
            == [(op.full, op.ctrl) for op in circuit.ops
                if isinstance(op, Macro)])
    assert count_resources(parsed, ry) == count_resources(circuit, ry)


def _reorder_keeping_use_order(circuit, rnd):
    """A random reordering of each stage, and of each stretch between
    stages, in which every qubit sees its uses in the original order."""
    ops = list(circuit.ops)
    cuts = sorted({0, len(ops), *(b for _, lo, hi in circuit.stages
                                  for b in (lo, hi))})
    reordered = []
    for lo, hi in zip(cuts, cuts[1:]):
        rest = ops[lo:hi]
        while rest:
            ready = []
            used = set()
            for i, op in enumerate(rest):
                if used.isdisjoint(op.qubits()):
                    ready.append(i)
                used.update(op.qubits())
            reordered.append(rest.pop(rnd.choice(ready)))
    return Circuit(circuit.registers, reordered, circuit.total_qubits,
                   circuit.stages)


@_PROPERTY
@given(circuit=_staged_circuits(), rnd=st.randoms(use_true_random=False))
def test_counts_depend_only_on_each_qubits_use_order(circuit, rnd):
    reordered = _reorder_keeping_use_order(circuit, rnd)
    assert (count_resources_at(reordered, (0, 7, 30))
            == count_resources_at(circuit, (0, 7, 30)))


def _stage_recount(circuit, ry):
    expected = {}
    for name, lo, hi in circuit.stages:
        alone = count_resources(Circuit(circuit.registers, circuit.ops[lo:hi],
                                        circuit.total_qubits), ry)
        tc, td = expected.get(name, (0, 0))
        expected[name] = (tc + alone.t_count, td + alone.t_depth)
    return expected


@_PROPERTY
@given(circuit=_staged_circuits(), ry=st.integers(0, 40))
def test_one_pass_breakdown_matches_stage_recount(circuit, ry):
    report = count_resources(circuit, ry)
    assert report.breakdown == _stage_recount(circuit, ry)
    unstaged = Circuit(circuit.registers, circuit.ops, circuit.total_qubits)
    assert report.as_tuple() == count_resources(unstaged, ry).as_tuple()


def network_columns(network):
    """A swap network's columns as the ``parallel_cswap_clean`` macros LOADF
    emitted before networks: column k swaps slots c and c + 2^k, c a
    multiple of 2^(k+1), under control k over the pool's first 2^(n-k)."""
    slots = network.slots
    columns = []
    for k, control in enumerate(network.controls):
        pairs = [(slots[c], slots[c + (1 << k)])
                 for c in range(0, len(slots), 2 << k)]
        columns.append(parallel_cswap_clean(control, pairs,
                                            network.pool[:2 * len(pairs)]))
    return adjoint_ops(columns) if network.inverted else columns


def _toffoli_gates(c1, c2, target):
    return [Gate(GateKind.TOFFOLI, (target,), ((c1, True), (c2, True)))]


def toffoli_macro(c1, c2, target):
    """The measurement-assisted Toffoli that a rotation block counts each
    two-control flip as: cost (4, 1), the target full, the controls
    read-only, a plain Toffoli as its expansion.  Its ``MacroKind`` is only
    a label: no text line writes it."""
    return Macro(MacroKind.UNARY_STEP, _toffoli_gates, (c1, c2, target), 4, 1,
                 full=(target,), ctrl=(c1, c2))


def flattened(circuit, keep_blocks=False):
    """``circuit`` with each swap layer, Clifford layer and rotation block
    replaced by its gates, and each swap network by its columns, with the
    stage bounds moved with them.  A rotation block's Toffolis become the
    ``toffoli_macro`` ops it is counted as: the ops each slot was emitted
    as before blocks.  With ``keep_blocks`` the rotation blocks stay, so
    that the flat circuit has a text."""
    ops, at = [], [0]
    for op in circuit.ops:
        if isinstance(op, SwapNetwork):
            ops.extend(network_columns(op))
        elif isinstance(op, (SwapLayer, CliffordLayer)):
            ops.extend(op.expansion)
        elif isinstance(op, RotationBlock) and not keep_blocks:
            ops.extend(toffoli_macro(g.controls[0][0], g.controls[1][0],
                                     g.targets[0])
                       if g.kind is GateKind.TOFFOLI else g
                       for g in op.expansion)
        else:
            ops.append(op)
        at.append(len(ops))
    return Circuit(circuit.registers, ops, circuit.total_qubits,
                   [(name, at[lo], at[hi]) for name, lo, hi in circuit.stages])


def _oracle_counts(ops, ry):
    """T-count and T-depth of gates and macros by a longest path over
    pairwise conflicts: op j waits for an earlier op i when they share a
    qubit that is not control-only in both.  A macro uses the qubits of its
    declared roles; its scratch qubits are not counted."""
    t_count = 0
    placed = []     # (full qubits, control-only qubits, finish) per op
    for op in ops:
        if isinstance(op, Macro):
            weight = (op.t_count, op.t_depth)
            full, ctrl = set(op.full), set(op.ctrl)
        else:
            w = {GateKind.T: 1, GateKind.TDG: 1, GateKind.G: 1,
                 GateKind.GDG: 1, GateKind.RY: ry}.get(op.kind, 0)
            weight = (w, w)
            ctrl = {q for q, _ in op.controls}
            full = set(op.qubits()) - ctrl
        start = max((finish for f, c, finish in placed
                     if full & (f | c) or ctrl & f), default=0)
        t_count += weight[0]
        placed.append((full, ctrl, start + weight[1]))
    return t_count, max((finish for _, _, finish in placed), default=0)


# Two rotation blocks sharing only a control commute; the T on that control
# waits for both.
_SHARED_CONTROL = Circuit([QubitRegister("q", 0, 3)], [
    RotationBlock(((0,), (1,)), [0.5]),
    RotationBlock(((0,), (2,)), [0.5]),
    Gate(GateKind.T, (0,)),
], 3)


# Slots (0, 2) then (1, 2), inverted, after 100 T gates on control 0: the
# adjoint runs slot (1, 2) first, so at R_y = 1 the target is done at 101;
# walking the slots in their forward order would give 103.
_SHARED_TARGET = Circuit([QubitRegister("q", 0, 3)], [
    *[Gate(GateKind.T, (0,))] * 100,
    RotationBlock(((0, 1), (2, 2)), [0.5, 0.25]).adjoint(),
], 3, [("ts", 0, 100), ("ladder", 100, 101)])


def test_inverted_block_schedules_its_slots_in_reverse():
    report = count_resources(_SHARED_TARGET, 1)
    assert report.t_depth == 101
    assert report.breakdown == {"ts": (100, 100), "ladder": (4, 4)}
    assert count_resources(flattened(_SHARED_TARGET), 1) == report


@_PROPERTY
@given(circuit=_staged_circuits(), ry=st.integers(0, 40))
@example(circuit=_SHARED_CONTROL, ry=5)
@example(circuit=_SHARED_TARGET, ry=1)
def test_counts_match_pairwise_conflict_oracle(circuit, ry):
    report = count_resources(circuit, ry)
    assert (report.t_count, report.t_depth) == _oracle_counts(
        flattened(circuit).ops, ry)


# One qubit carries 20 T gates, another one RY: T-depth is max(20, R_y), so
# R_y values on both sides of 20 take different critical paths.
_SWITCHING_PATH = Circuit([QubitRegister("q", 0, 2)],
                          [Gate(GateKind.T, (0,))] * 20
                          + [Gate(GateKind.RY, (1,), (), 0.3)],
                          2, [("ts", 0, 20), ("rot", 20, 21)])


@_PROPERTY
@given(circuit=_staged_circuits(),
       rys=st.lists(st.integers(0, 40), min_size=1, max_size=4))
@example(circuit=_SWITCHING_PATH, rys=[10, 30])
@example(circuit=_SHARED_CONTROL, rys=[0, 5, 5])
@example(circuit=_SHARED_TARGET, rys=[1, 30])
def test_multi_ry_reports_match_oracle_per_value(circuit, rys):
    reports = count_resources_at(circuit, rys)
    assert len(reports) == len(rys)
    for ry, report in zip(rys, reports):
        assert (report.t_count, report.t_depth) == _oracle_counts(
            flattened(circuit).ops, ry)
        assert report.breakdown == _stage_recount(circuit, ry)
        assert report == count_resources(circuit, ry_cost=ry)


# ---------------------------------------------------------------------------
# Adjoints: self-inverse gates are shared, macros keep their qubit roles
# ---------------------------------------------------------------------------

_NOT_SELF_INVERSE = {GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                     GateKind.G, GateKind.GDG, GateKind.RY}


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_adjoint_round_trip_and_sharing(kind):
    n_t, n_c = _SHAPES.get(kind, (1, 0))
    n_t = n_t or 2
    n_c = 2 if n_c is None else n_c
    gate = Gate(kind, range(n_t), [(q, q % 2 == 0)
                                    for q in range(n_t, n_t + n_c)],
                0.25 if kind is GateKind.RY else None)
    gate.validate()
    inverse = gate.adjoint()
    assert inverse.adjoint() == gate
    assert (inverse is gate) == (kind not in _NOT_SELF_INVERSE)
    if kind is GateKind.RY:
        assert inverse.angle == -0.25


@_PROPERTY
@given(data=st.data())
def test_macro_adjoint_keeps_qubit_roles(data):
    gates = data.draw(st.lists(_gates(), min_size=1, max_size=5))
    macro = data.draw(_macros(gates))
    inverse = macro.adjoint()
    assert inverse.full is macro.full and inverse.ctrl is macro.ctrl
    assert inverse.inverted and not inverse.adjoint().inverted
    assert inverse.expansion == tuple(adjoint_ops(macro.expansion))


# ---------------------------------------------------------------------------
# Swap layers: one op, counted as its gates
# ---------------------------------------------------------------------------

_LAYER_WIDTH = 9


@st.composite
def _layer_circuits(draw, factory=False):
    """A swap layer (default or layered, forward or adjoint, 1-4 pairs,
    either control polarity) after a drawn prefix of gates and macros on
    its qubits and before a drawn suffix, with drawn stage bounds; the
    macros are the factories' when ``factory``."""
    layer = draw(_swap_layers(_LAYER_WIDTH))
    c = layer.controls[0][0]
    gates = draw(st.lists(_gates(_LAYER_WIDTH), min_size=1, max_size=6))
    # A rotation block that only reads the layer's control, so the
    # control's last read can follow its last full use.
    reader = RotationBlock(
        ((c,), (draw(st.sampled_from([q for q in range(_LAYER_WIDTH)
                                       if q != c])),)), [0.5])
    macros = (_factory_macros(_LAYER_WIDTH) if factory
              else _macros(gates, _LAYER_WIDTH))
    pool = gates + [reader] + draw(st.lists(macros, max_size=2))
    ops = (draw(st.lists(st.sampled_from(pool), max_size=16)) + [layer]
           + draw(st.lists(st.sampled_from(pool), max_size=6)))
    bounds = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=6)))
    stages = [(f"s{i % 2}", bounds[2 * i], bounds[2 * i + 1])
              for i in range(len(bounds) // 2)]
    return Circuit([QubitRegister("q", 0, _LAYER_WIDTH)], ops, _LAYER_WIDTH,
                   stages)


# Control 0 is last read (busy) after its last full use; pair (2, 3) ends
# its first half later than pair (4, 5), which a T then reads.
_LAYERED_AFTER_READ = Circuit(
    [QubitRegister("q", 0, 6)],
    [Gate(GateKind.T, (1,))] * 5 + [
        Gate(GateKind.CNOT, (1,), ((0, True),)), Gate(GateKind.T, (2,)),
        SwapLayer(((0, True),), ((2, 3), (4, 5)), layered=True),
        Gate(GateKind.T, (4,))],
    6, [("s0", 0, 7), ("s1", 7, 9)])

# Control 0's last full use ends after every pair qubit is free: the read
# of the control, one per pair or one for the layered layer, waits for it.
_DEFAULT_AFTER_USE, _LAYERED_AFTER_USE = (Circuit(
    [QubitRegister("q", 0, 6)],
    [Gate(GateKind.T, (0,))] * 5
    + [SwapLayer(((0, True),), ((2, 3), (4, 5)), layered=layered)],
    6) for layered in (False, True))


@_PROPERTY
@given(circuit=_layer_circuits())
@example(circuit=_LAYERED_AFTER_READ)
@example(circuit=_DEFAULT_AFTER_USE)
@example(circuit=_LAYERED_AFTER_USE)
def test_swap_layer_counts_as_its_gates(circuit):
    assert (count_resources_at(circuit, (1, 10, 30))
            == count_resources_at(flattened(circuit), (1, 10, 30)))


@_PROPERTY
@given(circuit=_layer_circuits(factory=True))
def test_swap_layer_is_one_text_line(circuit):
    text = write_circuit_text(circuit)
    parsed = parse_circuit_text(text)
    layers = [op for op in parsed.ops if isinstance(op, SwapLayer)]
    assert len(parsed.ops) == len(circuit.ops) and len(layers) == 1
    (layer,) = layers
    (want,) = (op for op in circuit.ops if isinstance(op, SwapLayer))
    assert layer.expansion == want.expansion
    macros = [op for op in parsed.ops if isinstance(op, Macro)]
    assert macros == [op for op in circuit.ops if isinstance(op, Macro)]
    assert parsed.stages == circuit.stages
    assert write_circuit_text(parsed) == text
    assert (count_resources_at(parsed, (1, 10, 30))
            == count_resources_at(circuit, (1, 10, 30)))


@pytest.mark.parametrize("controls, pairs, message", [
    ((), ((1, 2),), "exactly one control"),
    (((0, True), (3, True)), ((1, 2),), "exactly one control"),
    (((0, True),), (), "one or more qubit pairs"),
    (((0, True),), ((1, 2, 3),), "one or more qubit pairs"),
    (((0, True),), ((1, 2), (2, 3)), "distinct"),
    (((1, True),), ((1, 2),), "distinct"),
    (((0, True),), ((1, 9),), "out of range"),
])
def test_builder_checks_a_swap_layer(controls, pairs, message):
    """A bad layer raises at ``build()``, and at ``Circuit`` beside its
    adjoint, with which it shares one check."""
    b = CircuitBuilder()
    b.allocate("q", 4)
    b.add(SwapLayer(controls, pairs))
    with pytest.raises(CircuitError, match=message):
        b.build()
    layer = SwapLayer(controls, pairs)
    with pytest.raises(CircuitError, match=message):
        Circuit([QubitRegister("q", 0, 4)], [layer, layer.adjoint()], 4)


# ---------------------------------------------------------------------------
# Rotation blocks: one op, counted as its gates
# ---------------------------------------------------------------------------

_BLOCK_WIDTH = 13
# Angles next to odd multiples of pi, signed zeros and any finite angle:
# counting reads none of them, and the text writes each exactly.
_BLOCK_ANGLES = st.one_of(
    st.builds(lambda base, step: math.nextafter(base, step),
              st.sampled_from((math.pi, 3 * math.pi, -math.pi, -3 * math.pi,
                               5 * math.pi)),
              st.sampled_from((-math.inf, math.inf))),
    st.sampled_from((math.pi, 3 * math.pi, -math.pi, 7 * math.pi, 0.0,
                     -0.0)),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _block_circuits(draw, factory=False):
    """A rotation block (one or two controls per slot, 1-4 slots, with or
    without its fanout, forward or adjoint) after a drawn prefix of gates
    and macros, and before a drawn suffix, with drawn stage bounds; the
    macros are the factories' when ``factory``."""
    m = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    order = draw(st.permutations(range(_BLOCK_WIDTH)))
    columns = [order[j:k * (m + 1):m + 1] for j in range(m + 1)]
    fanout = order[-1] if draw(st.booleans()) else None
    block = RotationBlock(columns, draw(st.lists(_BLOCK_ANGLES, min_size=k,
                                                 max_size=k)), fanout)
    if draw(st.booleans()):
        block = block.adjoint()
    gates = draw(st.lists(_gates(_BLOCK_WIDTH), min_size=1, max_size=6))
    controls = [q for column in columns[:-1] for q in column] + (
        [] if fanout is None else [fanout])
    # T gates on the block's qubits and one-slot blocks that read its
    # controls, so that the qubits of one slot reach the block at different
    # times.
    block_ops = [Gate(GateKind.T, (q,)) for q in draw(st.lists(
        st.sampled_from(block.qubits()), min_size=1, max_size=3))]
    for _ in range(2):
        c = draw(st.sampled_from(controls))
        t = draw(st.sampled_from([q for q in order if q != c]))
        block_ops.append(RotationBlock(((c,), (t,)), [0.5]))
    macros = (_factory_macros(_BLOCK_WIDTH) if factory
              else _macros(gates, _BLOCK_WIDTH))
    pool = gates + block_ops + draw(st.lists(macros, max_size=2))
    ops = (draw(st.lists(st.sampled_from(pool), max_size=16)) + [block]
           + draw(st.lists(st.sampled_from(pool), max_size=6)))
    bounds = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=6)))
    stages = [(f"s{i % 2}", bounds[2 * i], bounds[2 * i + 1])
              for i in range(len(bounds) // 2)]
    return Circuit([QubitRegister("q", 0, _BLOCK_WIDTH)], ops, _BLOCK_WIDTH,
                   stages)


def _t(q, times=1):
    return [Gate(GateKind.T, (q,))] * times


def _read(target, control):
    return RotationBlock(((control,), (target,)), [0.5])


_ONE_CONTROL = RotationBlock(((0,), (1,)), [math.pi])
_FANNED = RotationBlock(((1,), (2,), (3,)), [0.5], fanout=0)
# (before, block, after) where one rule of ``_schedule_block`` shows.
_BLOCK_EXAMPLES = [
    # A one-control slot only reads its control: control 0 is read before
    # and after the block, and all three reads commute.
    ([_read(2, 0)], _ONE_CONTROL, [_read(3, 0)]),
    # The fanout waits for the last full use of its qubit.
    (_t(0, 3), _FANNED, []),
    # A slot waits for the last full use of its second control.
    (_t(2, 3), _FANNED, []),
    # The fanout after the rotations: its target is read after the block.
    ([], _FANNED, [_read(4, 1)]),
]


def _block_examples(test):
    """Each of ``_BLOCK_EXAMPLES``, forward and adjoint, as an example of
    ``test`` on 5 qubits in one stage."""
    for before, block, after in _BLOCK_EXAMPLES:
        for op in (block, block.adjoint()):
            ops = [*before, op, *after]
            test = example(circuit=Circuit(
                [QubitRegister("q", 0, 5)], ops, 5,
                [("s0", 0, len(ops))]))(test)
    return test


@_PROPERTY
@given(circuit=_block_circuits())
@_block_examples
def test_rotation_block_counts_as_its_gates(circuit):
    assert (count_resources_at(circuit, (1, 10, 30))
            == count_resources_at(flattened(circuit), (1, 10, 30)))


@_PROPERTY
@given(circuit=_block_circuits(factory=True))
def test_rotation_block_is_one_text_line(circuit):
    text = write_circuit_text(circuit)
    blocks = [op for op in circuit.ops if isinstance(op, RotationBlock)]
    assert (sum(line.startswith("r ") for line in text.splitlines())
            == len(blocks))
    parsed = parse_circuit_text(text)
    assert _same_ops(parsed.ops, circuit.ops)
    for block, want in zip((op for op in parsed.ops
                            if isinstance(op, RotationBlock)), blocks):
        assert block.expansion == want.expansion
    assert parsed.stages == circuit.stages
    assert write_circuit_text(parsed) == text
    assert (count_resources_at(parsed, (1, 10, 30))
            == count_resources_at(circuit, (1, 10, 30)))


# Each case gives the block's slots as its columns.
@pytest.mark.parametrize("slots, thetas, fanout, message", [
    ((), (), None, "one or more slots"),
    (((0,),), (0.5,), None, "one or more slots"),
    (((0, 2), (1, 3, 4)), (0.5, 0.5), None, "one or more slots"),
    (((0,), (1,), (2,), (3,)), (0.5,), None, "one or more slots"),
    (((0,), (1,)), (0.5, 0.5), None, "one angle per slot"),
    (((0,), (1,)), (math.inf,), None, "finite"),
    (((0, 1), (1, 2)), (0.5, 0.5), None, "distinct"),
    (((0,), (1,), (2,)), (0.5,), 1, "distinct"),
    (((0,), (9,)), (0.5,), None, "out of range"),
    (((0,), (1,)), (0.5,), 9, "out of range"),
    (((), ()), (), None, "one or more slots"),
    (((0, 2), (1, 3), (4,)), (0.5, 0.5), None, "one or more slots"),
])
def test_builder_checks_a_rotation_block(slots, thetas, fanout, message):
    b = CircuitBuilder()
    b.allocate("q", 4)
    b.add(RotationBlock(slots, thetas, fanout))
    with pytest.raises(CircuitError, match=message):
        b.build()


@pytest.mark.parametrize("slots, fanout, message", [
    # Slots may share their target, as a fixed-precision ladder step does.
    (((0, 4), (1, 4), (2, 4)), None, None),
    (((0, 1, 4), (2, 3, 4)), None, None),
    (((0, 4), (1, 4)), 2, None),
    (((0, 4), (1, 4), (2, 3)), None, None),
    # A repeated control, a control that is another slot's target, and a
    # fanout on a slot qubit are not.
    (((0, 4), (0, 4)), None, "must be distinct"),
    (((0, 1, 4), (2, 0, 4)), None, "must be distinct"),
    (((0, 4), (4, 3)), None, "must be distinct"),
    (((0, 4), (1, 4), (2, 0)), None, "must be distinct"),
    (((0, 4), (1, 4)), 4, "must be distinct"),
    (((0, 4), (1, 4)), 1, "must be distinct"),
])
def test_builder_and_parser_check_a_shared_target(slots, fanout, message):
    block = RotationBlock(zip(*slots), [0.5] * len(slots), fanout)
    text = f"qubits 5\nreg q 0 5\n{block.fields()} inv=1\n"
    b = CircuitBuilder()
    b.allocate("q", 5)
    b.add(block.adjoint())
    if message is None:
        assert write_circuit_text(b.build()) == text
        assert write_circuit_text(parse_circuit_text(text)) == text
        return
    with pytest.raises(CircuitError, match=message):
        b.build()
    with pytest.raises(CircuitError, match=message):
        parse_circuit_text(text)


@st.composite
def _column_blocks(draw):
    """A rotation block from drawn columns: one or two control columns of
    1-4 distinct qubits, a target column drawn from the other qubits
    (targets may repeat), with or without a fanout, forward or adjoint."""
    m = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    order = draw(st.permutations(range(_BLOCK_WIDTH)))
    fanout = order[-1] if draw(st.booleans()) else None
    targets = st.sampled_from(order[m * k:-1])
    columns = [*(order[j * k:(j + 1) * k] for j in range(m)),
               draw(st.lists(targets, min_size=k, max_size=k))]
    block = RotationBlock(columns, draw(st.lists(
        _BLOCK_ANGLES, min_size=k, max_size=k)), fanout)
    return block.adjoint() if draw(st.booleans()) else block


@_PROPERTY
@given(block=_column_blocks())
def test_block_columns_round_trip_and_expand_slot_by_slot(block):
    """The text gives back the block's columns, angles and fanout, and its
    gates are slot k's ``controlled_ry_gates``, k = 0, 1, ..., between the
    fanouts."""
    circuit = Circuit([QubitRegister("q", 0, _BLOCK_WIDTH)], [block],
                      _BLOCK_WIDTH)
    parsed, = parse_circuit_text(write_circuit_text(circuit)).ops
    assert ((parsed.columns, parsed.thetas, parsed.fanout, parsed.inverted)
            == (block.columns, block.thetas, block.fanout, block.inverted))
    *controls, targets = block.columns
    want = []
    for k, theta in enumerate(block.thetas):
        want += controlled_ry_gates(theta, [c[k] for c in controls],
                                    targets[k])
    if block.fanout is not None:
        fan = Gate(GateKind.FANOUT_CNOT, controls[0],
                   ((block.fanout, True),))
        want = [fan, *want, fan]
    assert block.gates() == want
    assert list(parsed.expansion) == (adjoint_ops(want) if block.inverted
                                      else want)


# ---------------------------------------------------------------------------
# Swap networks: one op, counted as its columns
# ---------------------------------------------------------------------------

_NETWORK_WIDTH = 20


@st.composite
def _network_circuits(draw, factory=False):
    """A swap network (n = 1-3 columns, forward or adjoint) after a drawn
    prefix of ops on its qubits and before a drawn suffix, with drawn stage
    bounds: T gates on its qubits, one-slot rotation blocks that read its
    controls, drawn gates and macros (the factories' when
    ``factory``)."""
    n = draw(st.integers(1, 3))
    order = draw(st.permutations(range(_NETWORK_WIDTH)))
    size = 1 << n
    network = SwapNetwork(order[:n], order[n:n + size],
                          order[n + size:n + 2 * size])
    if draw(st.booleans()):
        network = network.adjoint()
    full = network.slots + network.pool
    pool = [Gate(GateKind.T, (q,)) for q in draw(st.lists(
        st.sampled_from(network.qubits()), min_size=1, max_size=4))]
    for c in draw(st.lists(st.sampled_from(network.controls), min_size=1,
                           max_size=2)):
        pool.append(RotationBlock(((c,), (draw(st.sampled_from(full)),)),
                                  [0.5]))
    pool += draw(st.lists(_gates(_NETWORK_WIDTH), max_size=4))
    pool += draw(st.lists(_factory_macros(_NETWORK_WIDTH) if factory
                          else _macros(pool[:1], _NETWORK_WIDTH),
                          max_size=2))
    ops = (draw(st.lists(st.sampled_from(pool), max_size=16)) + [network]
           + draw(st.lists(st.sampled_from(pool), max_size=6)))
    bounds = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=6)))
    stages = [(f"s{i % 2}", bounds[2 * i], bounds[2 * i + 1])
              for i in range(len(bounds) // 2)]
    return Circuit([QubitRegister("q", 0, _NETWORK_WIDTH)], ops,
                   _NETWORK_WIDTH, stages)


def _network_example(before, network, after):
    ops = [*before, network, *after]
    return Circuit([QubitRegister("q", 0, 11)], ops, 11,
                   [("s0", 0, len(ops))])


# n = 2 on controls 0, 1, slots 2-5 and pool 6-9.
_NETWORK = SwapNetwork((0, 1), (2, 3, 4, 5), (6, 7, 8, 9))


@_PROPERTY
@given(circuit=_network_circuits())
# Inverted, column 0 is the first to use slot 3 and pool 7, which come late.
@example(circuit=_network_example(_t(3, 5) + _t(7, 2), _NETWORK.adjoint(),
                                  []))
# Forward, column 1 waits for the last full use of its control.
@example(circuit=_network_example(
    [Gate(GateKind.CNOT, (1,), ((10, True),))] + _t(10, 3) + [
        Gate(GateKind.CNOT, (1,), ((10, True),))], _NETWORK, _t(2)))
# A control used after the network waits for it.
@example(circuit=_network_example(_t(4, 2), _NETWORK, _t(0, 3)))
# Inverted, column 1 waits for its control, and a T on column 0's control
# waits for the last column.
@example(circuit=_network_example(_t(1, 3), _NETWORK.adjoint(), _t(0)))
def test_swap_network_counts_as_its_columns(circuit):
    assert (count_resources_at(circuit, (1, 10, 30))
            == count_resources_at(flattened(circuit), (1, 10, 30)))


@_PROPERTY
@given(circuit=_network_circuits(factory=True))
def test_swap_network_is_one_text_line(circuit):
    text = write_circuit_text(circuit)
    (network,) = (op for op in circuit.ops if isinstance(op, SwapNetwork))
    lines = [line for line in text.splitlines() if line.startswith("w ")]
    assert lines == [f"w c={','.join(map(str, network.controls))} "
                     f"s={','.join(map(str, network.slots))} "
                     f"pool={','.join(map(str, network.pool))} "
                     f"inv={int(network.inverted)}"]
    parsed = parse_circuit_text(text)
    assert _same_ops([op for op in parsed.ops
                      if not isinstance(op, SwapNetwork)],
                     [op for op in circuit.ops
                      if not isinstance(op, SwapNetwork)])
    (parsed_network,) = (op for op in parsed.ops
                         if isinstance(op, SwapNetwork))
    assert ((parsed_network.controls, parsed_network.slots,
             parsed_network.pool, parsed_network.inverted)
            == (network.controls, network.slots, network.pool,
                network.inverted))
    assert parsed.stages == circuit.stages
    assert write_circuit_text(parsed) == text
    assert (count_resources_at(parsed, (1, 10, 30))
            == count_resources_at(circuit, (1, 10, 30)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("inverted", [False, True])
def test_swap_network_expands_to_its_columns(n, inverted):
    size = 1 << n
    network = SwapNetwork(range(n), range(n, n + size),
                          range(n + size, n + 2 * size))
    if inverted:
        network = network.adjoint()
    columns = network_columns(network)
    assert len(columns) == n
    assert network.expansion == tuple(
        g for column in columns for g in column.expansion)
    assert network.t_count == sum(column.t_count for column in columns)


@pytest.mark.parametrize("controls, slots, pool, message", [
    ((0,), (1, 2, 3), (4, 5, 6), "2\\^n slots"),
    ((), (1,), (2,), "2\\^n slots"),
    ((0, 1), (2, 3), (4, 5), "2\\^n slots"),
    ((0,), (1, 2), (3,), "one qubit per slot"),
    ((0,), (1, 2), (3, 4, 5), "one qubit per slot"),
    ((0,), (1, 1), (3, 4), "distinct"),
    ((0,), (1, 2), (3, 0), "distinct"),
    ((0, 1), (2, 3, 4, 5), (6, 7, 8, 2), "distinct"),
    ((0,), (1, 2), (3, 9), r"qubit 9 out of range \[0, 8\)"),
    ((8, 1), (2, 3, 4, 5), (6, 7, 0, 9), r"qubit 8 out of range \[0, 8\)"),
])
def test_builder_checks_a_swap_network(controls, slots, pool, message):
    """The builder and the parser of the network's line reject it alike."""
    network = SwapNetwork(controls, slots, pool)
    b = CircuitBuilder()
    b.allocate("q", 8)
    b.add(network)
    with pytest.raises(CircuitError, match=message):
        b.build()
    with pytest.raises(CircuitError, match=message):
        parse_circuit_text(f"qubits 8\nreg q 0 8\n{network.fields()} inv=0\n")


# ---------------------------------------------------------------------------
# Clifford layers: one op, counted as its gates
# ---------------------------------------------------------------------------

@st.composite
def _clifford_circuits(draw, factory=False):
    """A Clifford layer after a drawn prefix of ops on its qubits and
    before a drawn suffix, with drawn stage bounds: T gates and RYs on its
    targets, one-slot rotation blocks that read them, drawn gates, other
    layers and macros (the factories' when ``factory``)."""
    layer = draw(_clifford_layers())
    targets = layer.targets
    pool = [Gate(GateKind.T, (q,)) for q in draw(st.lists(
        st.sampled_from(targets), min_size=1, max_size=3))]
    pool += [Gate(GateKind.RY, (q,), (), 0.5) for q in draw(st.lists(
        st.sampled_from(targets), max_size=2))]
    for c in draw(st.lists(st.sampled_from(targets), min_size=1,
                           max_size=2)):
        t = draw(st.sampled_from([q for q in range(_WIDTH) if q != c]))
        pool.append(RotationBlock(((c,), (t,)), [0.5]))
    pool += draw(st.lists(_gates(), max_size=4))
    pool += draw(st.lists(_clifford_layers(), max_size=2))
    pool += draw(st.lists(_factory_macros() if factory
                          else _macros(pool[:1]), max_size=2))
    ops = (draw(st.lists(st.sampled_from(pool), max_size=16)) + [layer]
           + draw(st.lists(st.sampled_from(pool), max_size=6)))
    bounds = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=6)))
    stages = [(f"s{i % 2}", bounds[2 * i], bounds[2 * i + 1])
              for i in range(len(bounds) // 2)]
    return Circuit([QubitRegister("q", 0, _WIDTH)], ops, _WIDTH, stages)


# A layer on 0 and 1 after 3 Ts on 0 and a read of 1: the T after it on 1
# starts at the read's finish, not at 3.
_UNEVEN_LAYER = Circuit(
    [QubitRegister("q", 0, 3)],
    _t(0, 3) + [RotationBlock(((1,), (2,)), [0.5]),
                CliffordLayer(GateKind.H, (0, 1))] + _t(1),
    3, [("s0", 0, 4), ("s1", 4, 6)])


@_PROPERTY
@given(circuit=_clifford_circuits(), rys=st.lists(
    st.integers(0, 40), min_size=1, max_size=4))
@example(circuit=_UNEVEN_LAYER, rys=[0, 1, 30])
def test_clifford_layer_counts_as_its_gates(circuit, rys):
    """Totals and the stage breakdown, a layer inside a stage or across a
    stage bound, equal those of the layer's flat gates."""
    assert (count_resources_at(circuit, rys)
            == count_resources_at(flattened(circuit), rys))


@_PROPERTY
@given(circuit=_clifford_circuits(factory=True))
def test_clifford_layer_is_one_text_line(circuit):
    text = write_circuit_text(circuit)
    layers = [op for op in circuit.ops if isinstance(op, CliffordLayer)]
    lines = [line for line in text.splitlines() if line.startswith("c ")]
    assert lines == [f"c k={op.kind.value} t={','.join(map(str, op.targets))}"
                     f" inv={int(op.inverted)}" for op in layers]
    parsed = parse_circuit_text(text)
    assert _same_ops(parsed.ops, circuit.ops)
    assert parsed.stages == circuit.stages
    assert write_circuit_text(parsed) == text
    assert (count_resources_at(parsed, (1, 10, 30))
            == count_resources_at(circuit, (1, 10, 30)))


@pytest.mark.parametrize("kind, targets, line, message", [
    (GateKind.CNOT, (0,), "c k=CNOT t=0", "X, Z or H, not CNOT"),
    (GateKind.T, (0,), "c k=T t=0", "X, Z or H, not T"),
    (GateKind.X, (), "c k=X t=-", "one or more targets"),
    (GateKind.Z, (1, 2, 1), "c k=Z t=1,2,1", "distinct"),
    (GateKind.H, (0, 9), "c k=H t=0,9", r"qubit 9 out of range \[0, 4\)"),
])
def test_builder_and_parser_check_a_clifford_layer(kind, targets, line,
                                                   message):
    """The builder rejects the layer, and the parser its line, alike."""
    layer = CliffordLayer(kind, targets)
    assert layer.fields() == line
    b = CircuitBuilder()
    b.allocate("q", 4)
    b.add(layer)
    with pytest.raises(CircuitError, match=message):
        b.build()
    for inv in (0, 1):
        with pytest.raises(CircuitError, match=message):
            parse_circuit_text(f"qubits 4\nreg q 0 4\n{line} inv={inv}\n")


# ---------------------------------------------------------------------------
# The one adjoint of every compound op
# ---------------------------------------------------------------------------

@_PROPERTY
@given(circuit=st.one_of(_layer_circuits(factory=True),
                         _block_circuits(factory=True),
                         _network_circuits(factory=True),
                         _clifford_circuits(factory=True)),
       macro=_factory_macros())
def test_compound_adjoint_shares_fields_and_flips_inv(circuit, macro):
    """Each swap layer, rotation block, swap network, Clifford layer and
    macro of a drawn circuit, forward or adjoint: its adjoint holds the same field objects,
    inverts the expansion, and writes a line that parses back to itself;
    the adjoint's adjoint writes the op's line."""
    ops = [op for op in circuit.ops if isinstance(op, Compound)] + [macro]
    for op in ops:
        inverse = op.adjoint()
        assert type(inverse) is type(op)
        for name in type(op).__slots__:
            assert getattr(inverse, name) is getattr(op, name)
        assert inverse.inverted is not op.inverted
        assert op_line(inverse.adjoint()) == op_line(op)
        assert inverse.expansion == tuple(adjoint_ops(op.expansion))
        text = write_circuit_text(Circuit([], [inverse],
                                          circuit.total_qubits))
        assert write_circuit_text(parse_circuit_text(text)) == text
