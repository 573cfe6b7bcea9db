"""State preparation: swap-network tracing, output accuracy, resource match."""
import math
from fractions import Fraction

import numpy as np
import pytest

from blockenc.angle_tree import heap_angles, reconstruct_state
from blockenc.circuit import Circuit, adjoint_ops, count_resources
from blockenc.encoding import BlockEncodingConfig, Method, build_block_encoding
from blockenc.qram import QramModel
from blockenc.resources import evaluate
from blockenc.simulator import SparseState, check_clean, encode_register
from blockenc.stateprep import (
    build_sp_fixed,
    build_sp_prerotated,
    fixed_rows_for_trees,
    s_column_spec,
)
from blockenc.decomp import TWO_PI


def heap_path_angles(n, y_bits):
    """Heap indices consumed at steps 1..n for data bits y."""
    out = []
    node = 1
    for bit in y_bits:
        out.append(node)
        node = 2 * node + bit
    return out


def test_s_network_classical_trace_all_branches():
    """S_p halving places the step-p angle in slot 1, for every branch."""
    for n in range(1, 5):
        for y in range(1 << n):
            bits = [(y >> (n - 1 - i)) & 1 for i in range(n)]
            slots = {r: f"th{r}" for r in range(1, 1 << n)}
            signs = {j: f"s{j}" for j in range(1 << n)}
            seen = []
            for p in range(1, n + 1):
                if p >= 2:
                    angle_pairs, sign_pairs = s_column_spec(n, p)
                    if bits[p - 2]:
                        for a, b in angle_pairs:
                            slots[a], slots[b] = slots[b], slots[a]
                        for a, b in sign_pairs:
                            signs[a], signs[b] = signs[b], signs[a]
                    slots[1], slots[1 << (p - 1)] = slots[1 << (p - 1)], slots[1]
                seen.append(slots[1])
            if bits[n - 1]:
                signs[0], signs[1] = signs[1], signs[0]
            want = [f"th{r}" for r in heap_path_angles(n, bits)]
            assert seen == want, (n, bits)
            assert signs[0] == f"s{y}"


def sp_output(circuit, n, initial=0):
    data = circuit.register("data").qubits
    anc = [q for q in range(circuit.total_qubits) if q not in data]
    st = SparseState.basis(circuit.total_qubits, initial).run(circuit)
    vec = np.zeros(1 << n, dtype=complex)
    for idx, amp in st.amplitudes.items():
        vec[st.register_value(idx, data)] = amp
    return vec, check_clean(st, anc)


def test_sp_fixed_34_example():
    vec, clean = sp_output(build_sp_fixed([0.6, 0.8], 8), 1)
    assert clean
    assert np.abs(vec - [0.6, 0.8]).max() < math.pi * 2 ** -8


def test_sp_fixed_uniform_exact():
    for t in (2, 5):
        vec, clean = sp_output(build_sp_fixed([0.5] * 4, t), 2)
        assert clean
        assert np.abs(vec - 0.5).max() < 1e-12


def test_sp_fixed_count_example():
    c = build_sp_fixed(np.arange(1.0, 9.0), 4)
    for ry in (10, 30):
        assert count_resources(c, ry_cost=ry).t_count == 184 + 24 * ry


def test_sp_fixed_rounding_bound_property():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for t in (3, 5, 8):
            beta = rng.standard_normal(1 << n)
            vec, clean = sp_output(build_sp_fixed(beta, t), n)
            assert clean
            err = np.linalg.norm(vec - reconstruct_state([beta])[0])
            assert err <= n * math.pi * 2.0 ** -(t + 1) + 1e-12


def test_sp_prerotated_examples():
    beta = np.array([1.0, -2.0, 3.0, -4.0]) / math.sqrt(30)
    vec, clean = sp_output(build_sp_prerotated(beta), 2)
    assert clean
    assert np.linalg.norm(vec - reconstruct_state([beta])[0]) < 1e-10


def test_sp_prerotated_smallest_case():
    vec, clean = sp_output(build_sp_prerotated([0.8, -0.6]), 1)
    assert clean
    assert np.linalg.norm(vec - [0.8, -0.6]) < 1e-12


def test_sp_prerotated_depth_formula():
    rep = count_resources(build_sp_prerotated(np.arange(1.0, 9.0)), ry_cost=30)
    formula = evaluate("sp_prerotated", n=3, ry=30)
    # counted is n-1 shallower than the published stage-serial sum
    assert rep.t_depth == formula.t_depth - 2
    assert rep.t_count == formula.t_count
    assert rep.qubits == formula.qubits


def test_methods_agree_within_rounding():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        beta = rng.standard_normal(1 << n)
        t = 8
        fixed, _ = sp_output(build_sp_fixed(beta, t), n)
        pre, _ = sp_output(build_sp_prerotated(beta), n)
        assert np.linalg.norm(fixed - pre) <= n * math.pi * 2.0 ** -(t + 1)


def csp_column(circuit, n, k):
    data = circuit.register("data").qubits
    ctrl = circuit.register("control").qubits
    anc = [q for q in range(circuit.total_qubits)
           if q not in data and q not in ctrl]
    st = SparseState.basis(circuit.total_qubits,
                           encode_register(ctrl, k)).run(circuit)
    vec = np.zeros(1 << n, dtype=complex)
    junk = 0.0
    for idx, amp in st.amplitudes.items():
        if any((idx >> q) & 1 for q in anc) or st.register_value(idx, ctrl) != k:
            junk += abs(amp) ** 2
        else:
            vec[st.register_value(idx, data)] = amp
    return vec, junk


def encoding_csp(rows, **config):
    """Controlled state preparation of ``rows`` as the block encoding of the
    matrix with those rows emits it: the adjoint of its leg-2 stages."""
    c = build_block_encoding(np.array(rows, dtype=float),
                             BlockEncodingConfig(**config)).circuit
    leg2 = [op for name, lo, hi in c.stages if name.startswith("leg2_")
            for op in c.ops[lo:hi]]
    return Circuit(c.registers, adjoint_ops(leg2), c.total_qubits)


def fixed_csp(rows, t, lam, qram=QramModel.SELECT_SWAP):
    return encoding_csp(rows, method=Method.FIXED_PRECISION, qram=qram,
                        lam=lam, t=t)


def prerotated_csp(rows):
    n = len(rows).bit_length() - 1
    return encoding_csp(rows, method=Method.PRE_ROTATED, qram=QramModel.FLAGS,
                        lam=n)


def test_csp_fixed_ss_n1_example():
    rng = np.random.default_rng(2)
    rows = [rng.standard_normal(2) for _ in range(2)]
    states = reconstruct_state(rows)
    c = fixed_csp(rows, t=6, lam=1)
    for k in range(2):
        vec, junk = csp_column(c, 1, k)
        assert junk < 1e-18
        err = np.linalg.norm(vec - states[k])
        assert err <= math.pi * 2.0 ** -7 + 1e-12


def test_csp_fixed_bb_small():
    rng = np.random.default_rng(3)
    rows = [rng.standard_normal(2) for _ in range(2)]
    states = reconstruct_state(rows)
    c = fixed_csp(rows, t=3, lam=1, qram=QramModel.BUCKET_BRIGADE)
    for k in range(2):
        vec, junk = csp_column(c, 1, k)
        assert junk < 1e-18
        assert np.linalg.norm(vec - states[k]) <= math.pi / 16


def test_csp_fixed_superposed_control():
    rng = np.random.default_rng(4)
    rows = [rng.standard_normal(4) for _ in range(4)]
    c = fixed_csp(rows, t=8, lam=1)
    ctrl = c.register("control").qubits
    data = c.register("data").qubits
    amp = 1 / math.sqrt(2)
    st = SparseState(c.total_qubits, {encode_register(ctrl, 1): amp,
                                      encode_register(ctrl, 2): amp})
    st.run(c)
    for k in (1, 2):
        vec, _ = csp_column(c, 2, k)
        for j in range(4):
            idx = encode_register(ctrl, k) | encode_register(data, j)
            assert abs(st.amplitudes.get(idx, 0) - amp * vec[j]) < 1e-9


def test_csp_fixed_identical_trees_equal_plain_sp():
    row = [0.5, -0.5, 0.5, 0.5]
    c = fixed_csp([row] * 4, t=6, lam=2)
    sp, _ = sp_output(build_sp_fixed(row, 6), 2)
    for k in range(4):
        vec, junk = csp_column(c, 2, k)
        assert junk < 1e-18
        assert np.linalg.norm(vec - sp) < 1e-10


def test_csp_prerotated_random_family():
    rng = np.random.default_rng(5)
    rows = [rng.standard_normal(4) for _ in range(4)]
    c = prerotated_csp(rows)
    for k in range(4):
        vec, junk = csp_column(c, 2, k)
        assert junk < 1e-18
        assert np.linalg.norm(vec - reconstruct_state(rows)[k]) < 1e-9


def test_csp_prerotated_basis_trees():
    c = prerotated_csp([[1.0, 0, 0, 0]] * 4)
    for k in range(4):
        vec, junk = csp_column(c, 2, k)
        assert junk < 1e-18
        assert abs(vec[0] - 1.0) < 1e-10


def test_csp_prerotated_ancilla_budget():
    c = prerotated_csp([[1.0, 0, 0, 0]] * 4)
    big_n, n = 4, 2
    # data + control + angle/flag blocks + per-copy LOADF ancillas
    # (N-1)(2N-1) plus the phase-correct swap pools (2N per copy), which
    # together give the published 4N^2 - 3N + 2n - 1 block-encoding budget.
    loadf_anc = (big_n - 1) * (2 * big_n - 1) + (big_n - 1) * 2 * big_n
    assert c.total_qubits == 2 * n + 2 * (big_n - 1) + loadf_anc
    assert c.total_qubits == 4 * big_n ** 2 - 3 * big_n + 2 * n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_published_sp_fixed_formula_matching(n):
    rng = np.random.default_rng(n)
    beta = rng.standard_normal(1 << n)
    for t in (3, 5, 8):
        c = build_sp_fixed(beta, t)
        for ry in (10, 30):
            rep = count_resources(c, ry_cost=ry)
            formula = evaluate("sp_fixed", n=n, t=t, ry=ry)
            assert rep.qubits == formula.qubits
            assert rep.t_count == formula.t_count
            assert rep.t_depth == formula.t_depth - 2 * n  # ledgered overlap


def test_csp_prerotated_depth_within_block_encoding_budget():
    """CSP-pre T-depth equals the pre-rotated block-encoding total minus the
    plain state-preparation leg's share."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        matrix = rng.standard_normal((1 << n, 1 << n))
        cfg = BlockEncodingConfig(method=Method.PRE_ROTATED,
                                  qram=QramModel.FLAGS, lam=n)
        circuit = build_block_encoding(matrix, cfg).circuit
        for ry in (10, 30):
            breakdown = count_resources(circuit, ry_cost=ry).breakdown
            counted = breakdown["leg2_csp_dagger"][1]
            be_total = evaluate("be_prerotated", n=n, ry=ry).t_depth
            leg1 = evaluate("sp_prerotated", n=n, ry=ry).t_depth
            assert counted <= be_total - leg1


@pytest.mark.parametrize("t", [10, 60, 1023])
def test_fixed_rows_round_exactly(t):
    """Each angle's t bits are those of round(angle / 2pi * 2^t), ties up,
    in exact arithmetic on the float quotient.  The small leaf angles of the
    first rows put angle / 2pi * 2^60 in [2^52, 2^53), where adding 0.5 in
    floats would round a tie to even."""
    rng = np.random.default_rng(t)
    vectors = np.vstack([[[1.0, 0.02, -1.0, 0.015], [0.03, 1.0, 1.0, 0.04]],
                         rng.standard_normal((6, 4))])
    rows = fixed_rows_for_trees(vectors, t)
    for row, angles, vector in zip(rows, heap_angles(vectors), vectors):
        want = []
        for x in angles / TWO_PI:
            step = math.floor(Fraction(float(x)) * 2 ** t + Fraction(1, 2))
            want += [(step >> (t - 1 - j)) & 1 for j in range(t)]
        assert row.tolist() == want + [int(v < 0) for v in vector]
