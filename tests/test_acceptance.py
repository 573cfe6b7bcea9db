"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import math
import time

import numpy as np
import pytest

from blockenc.angle_tree import (
    qnorm_profile,
    qnorm_targets,
    reconstruct_state,
    symmetrized_targets,
)
from blockenc.circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    adjoint_ops,
    count_resources,
)
from blockenc.decomp import (
    ParameterError,
    controlled_ry_gates,
    parallel_cswap_clean,
    parallel_cswap_phase_incorrect_gates,
    unary_select,
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
    LoadSpec,
    QramModel,
    build_load_bb,
    build_load_ss,
    build_loadf,
)
from blockenc.resources import reproduce_headline_table, sweep_cross_validation
from blockenc.simulator import (
    SparseState,
    check_clean,
    dense_unitary,
    encode_register,
    extract_block,
    spectral_norm,
)
from blockenc.stateprep import build_sp_fixed, build_sp_prerotated


def report(number, name, passed, started, detail=""):
    elapsed = time.time() - started
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} in {elapsed:.1f}s{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"
    return elapsed


def test_criterion_1_headline_table_reproduction():
    started = time.time()
    rows = reproduce_headline_table(epsilon=0.01)
    matches = sum(row["match"] for row in rows)
    elapsed = report(1, "headline-table reproduction", matches == 18, started,
                     f"{matches}/18 values at one significant figure")
    assert elapsed < 1.0


def test_criterion_2_formula_cross_validation():
    started = time.time()
    verdicts = sweep_cross_validation(n_values=(1, 2, 3, 4),
                                      d_values=(1, 2, 3), t_values=(3, 5, 8),
                                      ry_values=(10, 30))
    bad = [v for v in verdicts if not v.passed]
    explained = sum(1 for v in verdicts if v.ledger_refs)
    elapsed = report(
        2, "formula-vs-circuit cross-validation", not bad, started,
        f"{len(verdicts)} grid points, {explained} ledger-explained, "
        f"{len(bad)} unexplained")
    assert elapsed < 60.0


def test_criterion_3_qram_semantics():
    started = time.time()
    rng = np.random.default_rng(33)
    ok = True
    for n in (1, 2, 3):
        for lam in range(n + 1):
            d = int(rng.integers(1, 3))
            rows = tuple(tuple(int(b) for b in rng.integers(0, 2, d))
                         for _ in range(1 << n))
            spec = LoadSpec(n=n, data_width=d, lam=lam,
                            model=QramModel.SELECT_SWAP, rows=rows)
            c = build_load_ss(spec)
            addr = c.register("addr").qubits
            data = c.register("data").qubits
            for j in range(1 << n):
                st = SparseState.basis(c.total_qubits,
                                       encode_register(addr, j)).run(c)
                values = {st.register_value(idx, data) for idx in st.amplitudes}
                want = int("".join(map(str, rows[j])), 2)
                ok &= values == {want}
            spec = LoadSpec(n=n, data_width=d, lam=lam,
                            model=QramModel.BUCKET_BRIGADE, rows=rows)
            c = build_load_bb(spec)
            addr = c.register("addr").qubits
            data = c.register("data").qubits
            anc = [q for q in range(c.total_qubits)
                   if q not in addr and q not in data]
            for j in range(1 << n):
                st = SparseState.basis(c.total_qubits,
                                       encode_register(addr, j)).run(c)
                values = {st.register_value(idx, data) for idx in st.amplitudes}
                want = int("".join(map(str, rows[j])), 2)
                ok &= values == {want}
                ok &= check_clean(st, anc)
                ok &= st.pruned_weight < 1e-24
    # LOADF flag contracts
    for n in (1, 2, 3):
        thetas = [tuple(rng.uniform(0, math.pi, 1)) for _ in range(1 << n)]
        spec = LoadSpec(n=n, data_width=1, lam=n, model=QramModel.FLAGS)
        c = build_loadf(spec, thetas)
        addr = c.register("addr").qubits
        flag = c.register("f0_flag").qubits[0]
        slot0 = c.register("f0_angle").qubits[0]
        rest = [q for q in range(c.total_qubits)
                if q not in addr and q not in (flag, slot0)]
        for j in range(1 << n):
            base = encode_register(addr, j)
            st = SparseState.basis(c.total_qubits, base).run(c)
            ok &= set(st.amplitudes) == {base}
            st = SparseState.basis(c.total_qubits, base | (1 << flag)).run(c)
            ok &= check_clean(st, rest)
            amp0 = amp1 = 0.0
            for idx, amp in st.amplitudes.items():
                if (idx >> slot0) & 1:
                    amp1 = amp
                else:
                    amp0 = amp
            theta = thetas[j][0]
            ok &= abs(amp0 - math.cos(theta / 2)) < 1e-10
            ok &= abs(amp1 - math.sin(theta / 2)) < 1e-10
    elapsed = report(3, "QRAM semantics", ok, started,
                     "LOAD_ss data, LOAD_bb garbage-freedom, LOADF flags")
    assert elapsed < 60.0


def test_criterion_4_state_preparation_accuracy():
    started = time.time()
    rng = np.random.default_rng(44)
    ok = True
    worst_fixed = 0.0
    worst_pre = 0.0
    for n in (1, 2, 3):
        for trial in range(50):
            beta = rng.standard_normal(1 << n)
            target = reconstruct_state([beta])[0]
            for t in (4, 8):
                c = build_sp_fixed(beta, t)
                data = c.register("data").qubits
                anc = [q for q in range(c.total_qubits) if q not in data]
                st = SparseState.basis(c.total_qubits, 0).run(c)
                vec = np.zeros(1 << n, dtype=complex)
                for idx, amp in st.amplitudes.items():
                    vec[st.register_value(idx, data)] = amp
                err = float(np.linalg.norm(vec - target))
                bound = n * math.pi * 2.0 ** -(t + 1)
                ok &= err <= bound + 1e-12
                ok &= check_clean(st, anc)
                worst_fixed = max(worst_fixed, err / bound)
            c = build_sp_prerotated(beta)
            data = c.register("data").qubits
            anc = [q for q in range(c.total_qubits) if q not in data]
            st = SparseState.basis(c.total_qubits, 0).run(c)
            vec = np.zeros(1 << n, dtype=complex)
            for idx, amp in st.amplitudes.items():
                vec[st.register_value(idx, data)] = amp
            err = float(np.linalg.norm(vec - target))
            ok &= err <= 1e-9
            ok &= check_clean(st, anc)
            worst_pre = max(worst_pre, err)
    elapsed = report(
        4, "state-preparation accuracy", ok, started,
        f"worst fixed error {worst_fixed:.2f} of bound, "
        f"worst pre-rotated {worst_pre:.1e}")
    assert elapsed < 60.0


def test_criterion_5_end_to_end_block_encoding():
    started = time.time()
    rng = np.random.default_rng(55)
    ok = True
    t = 8
    for trial in range(20):
        a = rng.standard_normal((4, 4))
        cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                                  qram=QramModel.SELECT_SWAP,
                                  lam=int(rng.integers(0, 3)), t=t)
        res = build_block_encoding(a, cfg)
        ext = extract_block(res.circuit, res.in_qubits)
        err = spectral_norm(a - res.alpha * ext.block)
        ok &= err <= math.pi * 2 * 2.0 ** -t * res.alpha
        cfg = BlockEncodingConfig(method=Method.PRE_ROTATED,
                                  qram=QramModel.FLAGS, lam=2)
        res = build_block_encoding(a, cfg)
        ext = extract_block(res.circuit, res.in_qubits)
        err = spectral_norm(a - res.alpha * ext.block)
        ok &= err <= 1e-9 * res.alpha
    # controlled variant: identity on control 0, usual bound on control 1
    for trial in range(20):
        a = rng.standard_normal((4, 4))
        cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                                  qram=QramModel.SELECT_SWAP, lam=1, t=t,
                                  variant=Variant.CONTROLLED)
        res = build_controlled_block_encoding(a, cfg)
        c = res.circuit
        flip = (Gate(GateKind.X, (res.control_qubits[0],)),)
        dim = 4
        for bit in (0, 1):
            # Control |1>: conjugate by X so the <0| projector selects it.
            ops = flip + c.ops + flip if bit else c.ops
            block = extract_block(Circuit(c.registers, ops, c.total_qubits),
                                  res.in_qubits).block
            if bit == 0:
                ok &= bool(np.abs(block - np.eye(dim)).max() < 1e-10)
            else:
                ok &= spectral_norm(a - res.alpha * block) <= \
                    math.pi * 2 * 2.0 ** -t * res.alpha
    # symmetric variant recovers the off-diagonal structure on 2x2 inputs
    for trial in range(10):
        a = rng.standard_normal((2, 2))
        cfg = BlockEncodingConfig(method=Method.FIXED_PRECISION,
                                  qram=QramModel.SELECT_SWAP, lam=0, t=t,
                                  variant=Variant.SYMMETRIC)
        res = build_symmetric_block_encoding(a, cfg)
        ext = extract_block(res.circuit, res.in_qubits)
        abar = np.zeros((4, 4))
        abar[:2, 2:] = a
        abar[2:, :2] = a.T
        err = spectral_norm(abar - res.alpha * ext.block[:4, :4])
        ok &= err <= math.pi * res.n * 2.0 ** -t * res.alpha
    elapsed = report(5, "end-to-end block-encoding", ok, started,
                     "20 fixed + 20 pre-rotated + controlled + symmetric")
    assert elapsed < 120.0


def test_criterion_6_parameter_selection_soundness():
    started = time.time()
    ok = True
    for epsilon in (1e-1, 1e-2, 1e-3):
        for alpha in (1.0, 10.0, 1000.0):
            for big_n in (4, 16):
                n = big_n.bit_length() - 1
                p = select_parameters(epsilon, alpha, n,
                                      Method.FIXED_PRECISION)
                total = (4 * p.t * n * p.delta_decomp * alpha
                         + math.pi * n * 2.0 ** -p.t * alpha)
                ok &= total <= epsilon + 1e-12
                p = select_parameters(epsilon, alpha, n, Method.PRE_ROTATED)
                ok &= 4 * n * p.delta_decomp * alpha <= epsilon + 1e-12
    elapsed = report(6, "parameter-selection soundness", ok, started)
    assert elapsed < 5.0


def test_criterion_7_appendix_identities():
    started = time.time()
    rng = np.random.default_rng(77)
    ok = True
    for side in (2, 4):
        a = rng.standard_normal((side, side))
        psi, phi = symmetrized_targets(a)
        fro = np.linalg.norm(a)
        for j in range(side):
            for jp in range(side):
                ok &= abs(float(np.dot(psi[j], phi[jp]))) < 1e-10
            for k in range(side):
                got = float(np.dot(psi[j], phi[side + k]))
                ok &= abs(got - a[j, k] / fro) < 1e-10
        for p in (0.25, 0.5, 0.75):
            mu_p = qnorm_profile(a, p).mu_p
            q_psi, q_phi, psi_sym, phi_sym = qnorm_targets(a, p)
            for j in range(side):
                for k in range(side):
                    got = float(np.dot(q_psi[j], q_phi[k]))
                    ok &= abs(got - a[j, k] / mu_p) < 1e-10
                    got = float(np.dot(psi_sym[j], phi_sym[side + k]))
                    ok &= abs(got - a[j, k] / mu_p) < 1e-10
    elapsed = report(7, "appendix state identities", ok, started,
                     "orthogonality and matrix-element recovery at 1e-10")
    assert elapsed < 10.0


def test_criterion_8_decomposition_fidelity():
    started = time.time()
    ok = True

    def counted(gates, width, ry_cost=0):
        b = CircuitBuilder()
        b.allocate("q", width)
        b.extend(gates)
        return count_resources(b.build(), ry_cost=ry_cost)

    def cswap_matrix():
        m = np.eye(8)
        m[[5, 6], [5, 6]] = 0
        m[5, 6] = m[6, 5] = 1
        return m

    # controlled rotations as the generators emit them: phase-exact, two
    # rotations each
    for theta in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 5.0):
        rot = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                        [math.sin(theta / 2), math.cos(theta / 2)]])
        gates = controlled_ry_gates(theta, (0,), 1)
        target = np.eye(4, dtype=complex)
        target[2:, 2:] = rot
        ok &= bool(np.abs(dense_unitary(gates, 2) - target).max() < 1e-12)
        ok &= counted(gates, 2, ry_cost=5).t_count == 10
        gates = controlled_ry_gates(theta, (0, 1), 2)
        target = np.eye(8, dtype=complex)
        target[6:, 6:] = rot
        ok &= bool(np.abs(dense_unitary(gates, 3) - target).max() < 1e-12)

    # phase-incorrect controlled swaps of k register pairs on one control:
    # |entries| match, the adjoint undoes the phases, counted (4k, 4)
    for size in (1, 2, 3):
        width = 1 + 2 * size
        pairs = tuple((1 + i, 1 + size + i) for i in range(size))
        gates = parallel_cswap_phase_incorrect_gates(((0, True),), pairs)
        u = dense_unitary(gates, width)
        if size == 1:
            ok &= bool(np.abs(np.abs(u) - cswap_matrix()).max() < 1e-12)
        adj = dense_unitary(adjoint_ops(gates), width)
        ok &= bool(np.abs(adj @ u - np.eye(1 << width)).max() < 1e-12)
        rep = counted(gates, width)
        ok &= (rep.t_count, rep.t_depth) == (4 * size, 4)
        mask = (1 << size) - 1
        for col in range(1 << width):
            ctrl = col >> (2 * size)
            va, vb = (col >> size) & mask, col & mask
            want = (ctrl << (2 * size)) | (
                (vb << size) | va if ctrl else (va << size) | vb)
            out = np.flatnonzero(np.abs(u[:, col]) > 1e-9)
            ok &= list(out) == [want]

    # phase-correct parallel controlled swap (clean ancillas start |0>)
    macro = parallel_cswap_clean(control=0, pairs=((1, 2),), pool=(3, 4))
    u = dense_unitary([macro], 5)
    for c in (0, 1):
        for va in (0, 1):
            for vb in (0, 1):
                col = (c << 4) | (va << 3) | (vb << 2)
                x, y = (vb, va) if c else (va, vb)
                want = (c << 4) | (x << 3) | (y << 2)
                ok &= abs(u[want, col] - 1) < 1e-12
    ok &= (macro.t_count, macro.t_depth) == (4, 1)
    with pytest.raises(ParameterError):
        parallel_cswap_clean(control=0, pairs=((1, 2),), pool=(3,))

    # unary select costs
    ok &= unary_select((0,), np.zeros((2, 1)), slots=(1,)).t_count == 4
    macro = unary_select((0, 1, 2), np.zeros((8, 1)), slots=(4,), flag=3)
    ok &= (macro.t_count, macro.t_depth) == (28, 28)

    elapsed = report(8, "decomposition fidelity", ok, started,
                     "dense-unitary equality and declared construction costs")
    assert elapsed < 30.0
