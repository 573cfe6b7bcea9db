"""Angle-tree preprocessing: trees, quantization, norms, target states."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc.angle_tree import (
    DegenerateInputError,
    _power_sum,
    build_tree,
    matrix_trees,
    pad_to_power_of_two,
    prerotated_leaves,
    qnorm_profile,
    qnorm_targets,
    quantize_angle,
    reconstruct_state,
    symmetrized_targets,
    zero_tree,
)


def test_build_tree_34():
    tree = build_tree([0.6, 0.8], 1)
    assert abs(tree.nodes[1][0] - 0.36) < 1e-12
    assert abs(tree.nodes[1][1] - 0.64) < 1e-12
    assert abs(tree.root - 1.0) < 1e-12
    assert abs(tree.angle(1) - 2 * math.acos(0.6)) < 1e-12


def test_build_tree_uniform_angles():
    tree = build_tree([0.5] * 4, 2)
    for r in (1, 2, 3):
        assert abs(tree.angle(r) - math.pi / 2) < 1e-12


def test_build_tree_basis_state():
    tree = build_tree([1, 0, 0, 0], 2)
    assert tree.angle(1) == 0.0
    assert tree.angle(2) == 0.0


def test_build_tree_rejects_zero():
    with pytest.raises(DegenerateInputError):
        build_tree([0.0, 0.0], 1)


def test_parent_is_sum_of_children_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        tree = build_tree(rng.standard_normal(1 << n), n)
        for w in range(n):
            for i in range(1 << w):
                parent = tree.nodes[w][i]
                left = tree.nodes[w + 1][2 * i]
                right = tree.nodes[w + 1][2 * i + 1]
                assert abs(parent - left - right) < 1e-10 * max(1, parent)


def test_angles_heap_order_and_signs():
    tree = build_tree(np.array([1.0, -1.0]) / math.sqrt(2), 1)
    assert abs(tree.angle(1) - math.pi / 2) < 1e-12
    assert tree.signs == (0, 1)
    tree = build_tree(np.array([3.0, 0.0, 4.0, 0.0]) / 5.0, 2)
    assert abs(tree.angle(1) - 2 * math.acos(0.6)) < 1e-9
    assert tree.angle(2) == 0.0
    assert tree.angle(3) == 0.0


def test_reconstruct_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        beta = rng.standard_normal(1 << n)
        tree = build_tree(beta, n)
        got = reconstruct_state(tree)
        want = beta / np.linalg.norm(beta)
        assert np.abs(got - want).max() < 1e-12


def test_reconstruct_signed_example():
    beta = np.array([1.0, -2.0, 3.0, -4.0])
    got = reconstruct_state(build_tree(beta, 2))
    assert np.abs(got - beta / np.linalg.norm(beta)).max() < 1e-12


def test_quantize_examples():
    q = quantize_angle(math.pi / 2, 3)
    assert q.bits == "010"
    assert abs(q.value - math.pi / 2) < 1e-12
    q = quantize_angle(math.pi, 2)
    assert q.bits == "10"
    assert abs(q.value - math.pi) < 1e-12
    q = quantize_angle(1.0, 8)
    assert q.integer == 41
    assert abs(q.value - 1.0) < math.pi * 2 ** -8


def test_quantization_error_bound_property():
    rng = np.random.default_rng(3)
    for _ in range(10000):
        theta = float(rng.uniform(0, math.pi))
        t = int(rng.integers(1, 16))
        q = quantize_angle(theta, t)
        assert abs(theta - q.value) <= math.pi * 2.0 ** -t + 1e-15


def test_prerotated_leaves_uniform():
    tree = build_tree([0.5] * 4, 2)
    for leaf in prerotated_leaves(tree):
        assert abs(leaf.amp0 - math.cos(math.pi / 4)) < 1e-12
        assert abs(leaf.amp1 - math.sin(math.pi / 4)) < 1e-12


def test_prerotated_leaves_sign_folding():
    beta = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0
    leaves = {leaf.r: leaf for leaf in prerotated_leaves(build_tree(beta, 2))}
    assert abs(leaves[2].amp0 - math.cos(math.pi / 4)) < 1e-12
    assert abs(leaves[2].amp1 + math.sin(math.pi / 4)) < 1e-12
    # folded angle reproduces the signed amplitudes exactly
    th = leaves[2].folded_angle()
    assert abs(math.cos(th / 2) - leaves[2].amp0) < 1e-12
    assert abs(math.sin(th / 2) - leaves[2].amp1) < 1e-12


def test_prerotated_basis_leaf():
    leaves = {leaf.r: leaf for leaf in
              prerotated_leaves(build_tree([1, 0, 0, 0], 2))}
    assert leaves[1].amp0 == 1.0
    assert leaves[1].amp1 == 0.0


def test_matrix_trees_identity():
    row_trees, phi_tree, alpha = matrix_trees(np.eye(2))
    assert abs(alpha - math.sqrt(2)) < 1e-12
    assert np.abs(reconstruct_state(row_trees[0]) - [1, 0]).max() < 1e-12
    assert np.abs(reconstruct_state(row_trees[1]) - [0, 1]).max() < 1e-12
    uniform = 1 / math.sqrt(2)
    assert np.abs(reconstruct_state(phi_tree) - [uniform, uniform]).max() < 1e-12


def test_matrix_trees_1234():
    row_trees, phi_tree, alpha = matrix_trees(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(alpha - math.sqrt(30)) < 1e-12
    want = np.array([math.sqrt(5), math.sqrt(25)]) / math.sqrt(30)
    assert np.abs(reconstruct_state(phi_tree) - want).max() < 1e-12


def test_matrix_trees_zero_row():
    row_trees, _, _ = matrix_trees(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert row_trees[0].is_zero()
    assert row_trees[0].angle(1) == 0.0


def test_frobenius_identity_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        _, phi_tree, alpha = matrix_trees(a)
        assert abs(phi_tree.root - alpha ** 2) < 1e-10 * alpha ** 2


def test_pad_to_power_of_two():
    a = np.ones((3, 5))
    p = pad_to_power_of_two(a)
    assert p.shape == (4, 8)
    assert np.all(p[:3, :5] == 1)
    assert np.all(p[3:, :] == 0)


# -- symmetrized Frobenius targets -------------------------------------------

def _inner(u, v):
    return float(np.dot(u, v))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (4, 2)])
def test_symmetrized_identities(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    psi, phi = symmetrized_targets(a)
    m_rows, n_cols = shape
    fro = np.linalg.norm(a)
    for vec in psi + phi:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    # orthogonality within the same index class
    for j in range(m_rows):
        for jp in range(m_rows):
            assert abs(_inner(psi[j], phi[jp])) < 1e-10
    for k in range(n_cols):
        for kp in range(n_cols):
            assert abs(_inner(psi[m_rows + k], phi[m_rows + kp])) < 1e-10
    # matrix-element recovery
    for j in range(m_rows):
        for k in range(n_cols):
            assert abs(_inner(psi[j], phi[m_rows + k]) - a[j, k] / fro) < 1e-10
            assert abs(_inner(psi[m_rows + k], phi[j]) - a[j, k] / fro) < 1e-10


# -- q-norm --------------------------------------------------------------------

def test_qnorm_identity_matrix():
    data = qnorm_profile(np.eye(2), 0.5)
    assert abs(data.mu_p - 1.0) < 1e-12
    assert all(abs(chi) < 1e-12 for chi in data.chi_row)


def test_qnorm_p1_diag_example():
    data = qnorm_profile(np.diag([3.0, 4.0]), 1.0)
    assert abs(data.mu_p - 4.0) < 1e-12


def test_qnorm_recovery_identity():
    rng = np.random.default_rng(5)
    for p in (0.25, 0.5, 0.75):
        a = rng.standard_normal((2, 2))
        mu_p = qnorm_profile(a, p).mu_p
        psi, phi, _, _ = qnorm_targets(a, p)
        for j in range(2):
            for k in range(2):
                got = _inner(psi[j], phi[k])
                assert abs(got - a[j, k] / mu_p) < 1e-10


def test_qnorm_symmetrized_recovery():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2))
    for p in (0.25, 0.5, 0.75):
        mu_p = qnorm_profile(a, p).mu_p
        _, _, psi_sym, phi_sym = qnorm_targets(a, p)
        m = 2
        for j in range(m):
            for k in range(2):
                got = _inner(psi_sym[j], phi_sym[m + k])
                assert abs(got - a[j, k] / mu_p) < 1e-10
        for j in range(m):
            for jp in range(m):
                assert abs(_inner(psi_sym[j], phi_sym[jp])) < 1e-10


def test_qnorm_zero_row_degenerate():
    with pytest.raises(DegenerateInputError):
        qnorm_profile(np.array([[0.0, 0.0], [1.0, 2.0]]), 0.5)


def test_qnorm_profile_builds_no_families():
    a = np.random.default_rng(8).standard_normal((64, 64))
    tracemalloc.start()
    try:
        qnorm_profile(a, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_qnorm_targets_need_a_square_matrix():
    a = np.arange(1.0, 7.0).reshape(2, 3)
    assert len(qnorm_profile(a, 0.5).chi_col) == 3
    with pytest.raises(ValueError, match="square"):
        qnorm_targets(a, 0.5)


# Loop references for the target families: one coefficient at a time.  The
# power sums and chi angles are the report's own, so only the families differ.

def _loop_qnorm_targets(a, p):
    data = qnorm_profile(a, p)
    chi_row, chi_col = data.chi_row, data.chi_col
    row_pow = [_power_sum(row, 2 * p) for row in a]
    col_pow = [_power_sum(col, 2 * (1 - p)) for col in a.T]
    nn = a.shape[0]
    width = 2 * nn
    big = 4 * nn
    psi, phi, psi_sym, phi_sym = [], [], [], []
    for j in range(nn):
        pv, sp, sf = (np.zeros(width * width), np.zeros(big * big),
                      np.zeros(big * big))
        for k in range(nn):
            coeff = math.copysign(abs(a[j, k]) ** p, a[j, k]) / math.sqrt(row_pow[j])
            c, s = coeff * math.cos(chi_row[j]), coeff * math.sin(chi_row[j])
            pv[j * width + k] += c
            pv[j * width + nn + k] += s
            sp[j * big + (nn + k)] += c
            sp[j * big + (3 * nn + k)] += s
            sf[(nn + k) * big + j] += c
            sf[(3 * nn + k) * big + j] += s
        psi.append(pv)
        psi_sym.append(sp)
        phi_sym.append(sf)
    for k in range(nn):
        fv, sp, sf = (np.zeros(width * width), np.zeros(big * big),
                      np.zeros(big * big))
        for j in range(nn):
            coeff = abs(a[j, k]) ** (1 - p) / math.sqrt(col_pow[k])
            c, s = coeff * math.cos(chi_col[k]), coeff * math.sin(chi_col[k])
            fv[j * width + k] += c
            fv[(nn + j) * width + k] += s
            sp[(nn + k) * big + j] += c
            sp[(nn + k) * big + (2 * nn + j)] += s
            sf[j * big + (nn + k)] += c
            sf[(2 * nn + j) * big + (nn + k)] += s
        phi.append(fv)
        psi_sym.append(sp)
        phi_sym.append(sf)
    return psi, phi, psi_sym, phi_sym


def _loop_symmetrized_targets(a):
    m_rows, n_cols = a.shape
    fro = float(np.linalg.norm(a))
    row_norms = np.linalg.norm(a, axis=1)
    big = 2 * m_rows
    psi, phi = [], []
    for j in range(m_rows):
        pv, fv = np.zeros(big * big), np.zeros(big * big)
        if row_norms[j] > 0:
            for k in range(n_cols):
                pv[j * big + (m_rows + k)] = a[j, k] / row_norms[j]
                fv[(m_rows + k) * big + j] = a[j, k] / row_norms[j]
        psi.append(pv)
        phi.append(fv)
    for k in range(n_cols):
        pv, fv = np.zeros(big * big), np.zeros(big * big)
        for j in range(m_rows):
            pv[(m_rows + k) * big + j] = row_norms[j] / fro
            fv[j * big + (m_rows + k)] = row_norms[j] / fro
        psi.append(pv)
        phi.append(fv)
    return psi, phi


def _assert_families_equal(got, want):
    assert len(got) == len(want)
    for family, ref in zip(got, want):
        assert isinstance(family, tuple) and len(family) == len(ref)
        for vec, ref_vec in zip(family, ref):
            assert vec.ndim == 1 and vec.shape == ref_vec.shape
            assert np.abs(vec - ref_vec).max() <= 1e-14


_ENTRY = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def _matrices(draw, shapes):
    rows, cols = draw(shapes)
    flat = draw(st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat).reshape(rows, cols)


@settings(max_examples=60, deadline=None)
@given(a=_matrices(st.integers(2, 8).map(lambda n: (n, n))),
       p=st.floats(0.0, 1.0))
def test_qnorm_targets_match_loop_reference(a, p):
    try:
        want = _loop_qnorm_targets(a, p)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            qnorm_targets(a, p)
        return
    _assert_families_equal(qnorm_targets(a, p), want)


@settings(max_examples=40, deadline=None)
@given(a=_matrices(st.sampled_from([(2, 2), (4, 4), (8, 8), (4, 2)])))
def test_symmetrized_targets_match_loop_reference(a):
    if np.linalg.norm(a) == 0:
        with pytest.raises(DegenerateInputError):
            symmetrized_targets(a)
        return
    _assert_families_equal(symmetrized_targets(a),
                           _loop_symmetrized_targets(a))


def test_zero_tree_convention():
    tree = zero_tree(2)
    assert tree.is_zero()
    assert all(tree.angle(r) == 0.0 for r in (1, 2, 3))
