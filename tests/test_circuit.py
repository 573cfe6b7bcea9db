"""Circuit IR: construction, counting rules, invariants, text format."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blockenc.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    GateKind,
    Macro,
    MacroKind,
    QubitRegister,
    adjoint_ops,
    count_resources,
    count_resources_at,
    parse_circuit_text,
    stored_gates,
    write_circuit_text,
)
from blockenc.decomp import (
    and_toffoli,
    parallel_cswap_clean,
    parallel_cswap_phase_incorrect_gates,
    unary_select,
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
    with pytest.raises(CircuitError):
        Circuit((QubitRegister("a", 0, 2), QubitRegister("b", 3, 1)), (), 4)


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
        rb = count_resources(c.adjoint())
        assert ra.t_count == rb.t_count
        assert ra.t_depth == rb.t_depth


def test_macro_declared_costs():
    b = CircuitBuilder()
    b.allocate("q", 8)
    # Two parallel AndToffolis on disjoint qubits share a T-layer.
    b.add(and_toffoli(0, 1, 2))
    b.add(and_toffoli(3, 4, 5))
    rep = count_resources(b.build())
    assert rep.t_count == 8
    assert rep.t_depth == 1
    assert rep.qubits == 8
    # Sequential on shared qubits: depth adds.
    b = CircuitBuilder()
    b.allocate("q", 3)
    b.add(and_toffoli(0, 1, 2))
    b.add(and_toffoli(0, 1, 2))
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
    b.allocate("data", 4)
    b.gate(GateKind.CSWAP, (4, 5), ((3, True),))
    b.gate(GateKind.RY, 0, angle=1.5707963)
    b.gate(GateKind.MCX, (4,), ((0, False), (1, True)))
    b.add(unary_select((0, 1), [(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0),
                                (1, 1, 0, 0)], slots=(2, 3, 4, 5), flag=4))
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
            "m AND_TOFFOLI tc=4 td=1 fq=2 cq=0,1 p=- ops=TOFFOLI;c=+0,+1;t=2\n"
            "m AND_TOFFOLI tc=4 td=1 fq=2,7 cq=0,1 p=- "
            "ops=TOFFOLI;c=+0,+1;t=2\n")
    with pytest.raises(CircuitError, match=r"qubit 7 out of range \[0, 3\)"):
        parse_circuit_text(text)


@pytest.mark.parametrize("line", [
    "qubits x",
    "g BOGUS t=0",
    "g T t=a",
    "m AND_TOFFOLI tc=4 td=1 ax=1 fp=- p=-",
    "stage a 0",
])
def test_malformed_line_raises_circuit_error(line):
    text = "qubits 3\nreg q 0 3\n" + line + "\n"
    with pytest.raises(CircuitError, match=f"unparseable line: {line!r}"):
        parse_circuit_text(text)


@pytest.mark.parametrize("line, message", [
    ("g T t=0 bogus=1", "unknown gate field 'bogus'"),
    ("m AND_TOFFOLI tc=4 td=1 bogus=9 fp=- p=- ops=TOFFOLI;c=+0,+1;t=2",
     "unknown macro field 'bogus'"),
])
def test_unknown_field_rejected(line, message):
    text = "qubits 3\nreg q 0 3\n" + line + "\n"
    with pytest.raises(CircuitError, match=message):
        parse_circuit_text(text)


_TOFFOLI_OPS = "ops=TOFFOLI;c=+0,+1;t=2"


@pytest.mark.parametrize("roles, message", [
    ("fp=2", "unknown macro field 'fp'"),
    ("fq=0,1 cq=2", "changes qubit 2 outside fq"),
    ("fq=2 cq=0", "uses qubit 1 outside fq and cq"),
    ("fq=- cq=-", "AND_TOFFOLI macro declares no qubit"),
])
def test_macro_roles_must_cover_the_expansion(roles, message):
    text = f"qubits 3\nreg q 0 3\nm AND_TOFFOLI tc=4 td=1 {roles} p=- "
    with pytest.raises(CircuitError, match=message):
        parse_circuit_text(text + _TOFFOLI_OPS + "\n")


def test_macro_line_writes_declared_roles():
    b = CircuitBuilder()
    b.allocate("q", 4)
    b.add(and_toffoli(1, 0, 3))
    b.add(unary_select((0,), [(0, 0), (0, 0)], slots=(2, 3)))
    lines = write_circuit_text(b.build()).splitlines()[2:]
    assert lines == [
        "m AND_TOFFOLI tc=4 td=1 fq=3 cq=0,1 p=- ops=TOFFOLI;c=+1,+0;t=3",
        "m UNARY_SELECT tc=4 td=4 fq=2,3 cq=0 p=s:1 ops="]
    # The all-zero select still reads its select qubit: the T on qubit 0
    # waits for it.
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
    assert lines == ["g RY t=0 a=0", "g RY t=0 a=-0", "g RY t=0 a=0",
                     "g RY t=0 a=1", "g RY t=0 a=-0"]


def test_builder_checks_each_distinct_gate():
    b = CircuitBuilder()
    b.allocate("q", 2)
    b.gate(GateKind.RY, 0, angle=0.5)
    b.gate(GateKind.RY, 0, angle=0.7)     # same shape: checked once
    with pytest.raises(CircuitError, match="angle mismatch"):
        b.gate(GateKind.RY, 0)
    with pytest.raises(CircuitError, match="out of range"):
        b.gate(GateKind.T, 2)
    b.allocate("r", 1)
    b.gate(GateKind.T, 2)
    with pytest.raises(CircuitError, match="distinct"):
        b.gate(GateKind.CNOT, (1,), ((1, True),))
    assert len(b.build().ops) == 3


# ---------------------------------------------------------------------------
# Properties: text round trip and one-pass stage breakdown
# ---------------------------------------------------------------------------

_WIDTH = 6
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
        n_c = draw(st.integers(1, _WIDTH - n_t))
    order = draw(st.permutations(range(_WIDTH)))
    controls = tuple((q, draw(st.booleans())) for q in order[n_t:n_t + n_c])
    angle = None
    if kind in _ANGLED:
        angle = draw(st.one_of(st.sampled_from((0.0, -0.0, math.pi)),
                               st.floats(-2 * math.pi, 2 * math.pi)))
    return Gate(kind, order[:n_t], controls, angle)


@st.composite
def _macros(draw, gates):
    """A macro over drawn gates whose roles cover its expansion, plus at
    least one drawn qubit declared full or control-only."""
    expansion = draw(st.lists(st.sampled_from(gates), max_size=4))
    params = draw(st.dictionaries(st.sampled_from(("s", "k", "from")),
                                  st.integers(0, 9), max_size=2))
    full = {q for g in expansion if g.kind is not GateKind.CZ
            for q in g.targets}
    read = {q for g in expansion for q in g.qubits()}
    for q in draw(st.lists(st.integers(0, _WIDTH - 1), min_size=1,
                           max_size=3, unique=True)):
        (full if draw(st.booleans()) else read).add(q)
    return Macro(draw(st.sampled_from(list(MacroKind))), params, stored_gates,
                 (tuple(expansion),), draw(st.integers(0, 8)),
                 draw(st.integers(0, 8)), full, read - full)


@st.composite
def _hub_rotations(draw):
    """A controlled rotation whose first control is qubit 0: rotations drawn
    this way share a control-only qubit, where the schedule must let them
    commute."""
    kind = draw(st.sampled_from((GateKind.CRY, GateKind.CCRY)))
    order = draw(st.permutations(range(1, _WIDTH)))
    n_c = _SHAPES[kind][1]
    controls = ((0, draw(st.booleans())),) + tuple(
        (q, draw(st.booleans())) for q in order[1:n_c])
    return Gate(kind, order[:1], controls,
                draw(st.floats(-math.pi, math.pi)))


@st.composite
def _staged_circuits(draw):
    """A circuit drawn from a small op pool, so lines repeat heavily, with
    1-3 registers and ordered, disjoint stages whose names may repeat.  The
    pool always holds two or more rotations that share control qubit 0."""
    gates = (draw(st.lists(_gates(), min_size=1, max_size=5))
             + draw(st.lists(_hub_rotations(), min_size=2, max_size=3)))
    pool = gates + draw(st.lists(_macros(gates), max_size=3))
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


@_PROPERTY
@given(circuit=_staged_circuits(), ry=st.integers(0, 40))
def test_text_round_trip_property(circuit, ry):
    parsed = parse_circuit_text(write_circuit_text(circuit))
    assert parsed.registers == circuit.registers
    assert parsed.stages == circuit.stages
    assert list(parsed.ops) == list(circuit.ops)
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


def _oracle_counts(ops, ry):
    """T-count and T-depth by a longest path over pairwise conflicts: op j
    waits for an earlier op i when they share a qubit that is not
    control-only in both."""
    t_count = 0
    placed = []     # (full qubits, control-only qubits, finish) per op
    for op in ops:
        if isinstance(op, Macro):
            weight = (op.t_count, op.t_depth)
            ctrl = set(op.ctrl)
        else:
            w = {GateKind.T: 1, GateKind.TDG: 1, GateKind.G: 1,
                 GateKind.GDG: 1, GateKind.RY: ry, GateKind.CRY: 2 * ry,
                 GateKind.CCRY: 2 * ry}.get(op.kind, 0)
            weight = (w, w)
            ctrl = {q for q, _ in op.controls}
            if op.kind is GateKind.CZ:
                ctrl |= set(op.targets)
        full = set(op.qubits()) - ctrl
        start = max((finish for f, c, finish in placed
                     if full & (f | c) or ctrl & f), default=0)
        t_count += weight[0]
        placed.append((full, ctrl, start + weight[1]))
    return t_count, max((finish for _, _, finish in placed), default=0)


# Two rotations sharing only a control commute; the T on that control waits
# for both.
_SHARED_CONTROL = Circuit([QubitRegister("q", 0, 3)], [
    Gate(GateKind.CRY, (1,), ((0, True),), 0.5),
    Gate(GateKind.CRY, (2,), ((0, False),), 0.5),
    Gate(GateKind.T, (0,)),
], 3)


@_PROPERTY
@given(circuit=_staged_circuits(), ry=st.integers(0, 40))
@example(circuit=_SHARED_CONTROL, ry=5)
def test_counts_match_pairwise_conflict_oracle(circuit, ry):
    report = count_resources(circuit, ry)
    assert (report.t_count, report.t_depth) == _oracle_counts(circuit.ops, ry)


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
def test_multi_ry_reports_match_oracle_per_value(circuit, rys):
    reports = count_resources_at(circuit, rys)
    assert len(reports) == len(rys)
    for ry, report in zip(rys, reports):
        assert (report.t_count, report.t_depth) == _oracle_counts(
            circuit.ops, ry)
        assert report.breakdown == _stage_recount(circuit, ry)
        assert report == count_resources(circuit, ry_cost=ry)


# ---------------------------------------------------------------------------
# Adjoints: self-inverse gates are shared, macros keep their qubit roles
# ---------------------------------------------------------------------------

_NOT_SELF_INVERSE = {GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                     GateKind.G, GateKind.GDG, *_ANGLED}


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_adjoint_round_trip_and_sharing(kind):
    n_t, n_c = _SHAPES.get(kind, (1, 0))
    n_t = n_t or 2
    n_c = 2 if n_c is None else n_c
    gate = Gate(kind, range(n_t), [(q, q % 2 == 0)
                                    for q in range(n_t, n_t + n_c)],
                0.25 if kind in _ANGLED else None)
    gate.validate()
    inverse = gate.adjoint()
    assert inverse.adjoint() == gate
    assert (inverse is gate) == (kind not in _NOT_SELF_INVERSE)
    if kind in _ANGLED:
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
