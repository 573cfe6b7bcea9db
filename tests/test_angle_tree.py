"""Classical preprocessing: angles, bit rows, folded angles, norms, targets."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc.angle_tree import (
    DegenerateInputError,
    _power_sum,
    heap_angles,
    matrix_trees,
    pad_to_power_of_two,
    prerotated_angles,
    qnorm_profile,
    qnorm_targets,
    reconstruct_state,
    scaled_frobenius,
    symmetrized_targets,
)
from blockenc.stateprep import fixed_rows_for_trees


def angle_values(vector, t):
    """The quantized angles a LOAD row holds, decoded from its bits."""
    n = len(vector).bit_length() - 1
    bits = fixed_rows_for_trees([vector], t)[0][: ((1 << n) - 1) * t]
    steps = [int("".join(map(str, bits[i: i + t])), 2)
             for i in range(0, len(bits), t)]
    return np.array(steps) * 2 * math.pi / 2 ** t


def test_build_tree_34():
    assert abs(heap_angles([[0.6, 0.8]])[0, 0] - 2 * math.acos(0.6)) < 1e-12
    assert np.abs(reconstruct_state([[0.6, 0.8]])[0] - [0.6, 0.8]).max() \
        < 1e-12


def test_build_tree_uniform_angles():
    assert np.abs(heap_angles([[0.5] * 4]) - math.pi / 2).max() < 1e-12


def test_build_tree_basis_state():
    angles = heap_angles([[1, 0, 0, 0]])[0]
    assert angles[0] == 0.0
    assert angles[1] == 0.0


def test_build_tree_rejects_zero():
    with pytest.raises(DegenerateInputError):
        matrix_trees(np.zeros((2, 2)))


def test_parent_is_sum_of_children_property():
    """Each angle splits its node's weight between the two children."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        beta = rng.standard_normal(1 << n)
        angles = heap_angles([beta])[0]
        weight = beta ** 2
        for w in range(n):
            nodes = weight.reshape(1 << w, -1)
            left = nodes[:, : nodes.shape[1] // 2].sum(axis=1)
            share = np.cos(angles[(1 << w) - 1: (2 << w) - 1] / 2) ** 2
            assert np.abs(left - share * nodes.sum(axis=1)).max() \
                < 1e-10 * max(1, weight.sum())


def test_angles_heap_order_and_signs():
    beta = np.array([1.0, -1.0]) / math.sqrt(2)
    assert abs(heap_angles([beta])[0, 0] - math.pi / 2) < 1e-12
    assert list(fixed_rows_for_trees([beta], 3)[0][-2:]) == [0, 1]
    angles = heap_angles([np.array([3.0, 0.0, 4.0, 0.0]) / 5.0])[0]
    assert abs(angles[0] - 2 * math.acos(0.6)) < 1e-9
    assert angles[1] == 0.0
    assert angles[2] == 0.0


def test_reconstruct_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        beta = rng.standard_normal((2, 1 << n))
        got = reconstruct_state(beta)
        want = beta / np.linalg.norm(beta, axis=1)[:, None]
        assert np.abs(got - want).max() < 1e-12


def test_reconstruct_signed_example():
    beta = np.array([1.0, -2.0, 3.0, -4.0])
    got = reconstruct_state([beta])[0]
    assert np.abs(got - beta / np.linalg.norm(beta)).max() < 1e-12


def test_quantize_examples():
    # theta_1 = pi/2, then pi, then 2 acos(1/sqrt(1 + tan(1/2)^2)) = 1.
    assert list(fixed_rows_for_trees([[1.0, 1.0]], 3)[0]) == [0, 1, 0, 0, 0]
    assert abs(angle_values([1.0, 1.0], 3)[0] - math.pi / 2) < 1e-12
    assert list(fixed_rows_for_trees([[0.0, 1.0]], 2)[0]) == [1, 0, 0, 0]
    assert abs(angle_values([0.0, 1.0], 2)[0] - math.pi) < 1e-12
    vector = [1.0, math.tan(0.5)]
    assert abs(heap_angles([vector])[0, 0] - 1.0) < 1e-12
    assert int("".join(map(str, fixed_rows_for_trees([vector], 8)[0][:8])),
               2) == 41
    assert abs(angle_values(vector, 8)[0] - 1.0) < math.pi * 2 ** -8


def test_quantization_error_bound_property():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 16))
        vector = rng.standard_normal(1 << n)
        err = np.abs(heap_angles([vector])[0] - angle_values(vector, t))
        assert err.max() <= math.pi * 2.0 ** -t + 1e-15


def test_prerotated_leaves_uniform():
    theta = prerotated_angles([[0.5] * 4])[0]
    assert np.abs(np.cos(theta / 2) - math.cos(math.pi / 4)).max() < 1e-12
    assert np.abs(np.sin(theta / 2) - math.sin(math.pi / 4)).max() < 1e-12


def test_prerotated_leaves_sign_folding():
    beta = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0
    theta = prerotated_angles([beta])[0]
    # leaf angle 2 carries the signs of amplitudes 0 and 1
    assert abs(math.cos(theta[1] / 2) - math.cos(math.pi / 4)) < 1e-12
    assert abs(math.sin(theta[1] / 2) + math.sin(math.pi / 4)) < 1e-12
    assert 0 <= theta.min() and theta.max() < 4 * math.pi


def test_prerotated_basis_leaf():
    theta = prerotated_angles([[1, 0, 0, 0]])[0]
    assert math.cos(theta[0] / 2) == 1.0
    assert math.sin(theta[0] / 2) == 0.0


def test_matrix_trees_identity():
    rows, phi, alpha = matrix_trees(np.eye(2))
    assert abs(alpha - math.sqrt(2)) < 1e-12
    assert np.abs(reconstruct_state(rows) - np.eye(2)).max() < 1e-12
    uniform = 1 / math.sqrt(2)
    assert np.abs(reconstruct_state(phi) - [uniform, uniform]).max() < 1e-12


def test_matrix_trees_1234():
    _, phi, alpha = matrix_trees(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(alpha - math.sqrt(30)) < 1e-12
    want = np.array([math.sqrt(5), math.sqrt(25)]) / math.sqrt(30)
    assert np.abs(reconstruct_state(phi)[0] - want).max() < 1e-12


def test_matrix_trees_zero_row():
    rows, _, _ = matrix_trees(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert not np.any(rows[0])
    assert heap_angles(rows)[0, 0] == 0.0


def test_frobenius_identity_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        _, phi, alpha = matrix_trees(a)
        assert abs(alpha - np.linalg.norm(a)) < 1e-12 * alpha
        want = np.linalg.norm(a, axis=1) / alpha
        assert np.abs(reconstruct_state(phi)[0] - want).max() < 1e-12


@pytest.mark.parametrize("scale", [2.0 ** -660, 2.0 ** 660])
def test_tiny_and_huge_matrices_scale_exactly(scale):
    a = np.random.default_rng(9).standard_normal((4, 4))
    rows, phi, alpha = matrix_trees(a * scale)
    ref_rows, ref_phi, ref_alpha = matrix_trees(a)
    assert alpha / scale == ref_alpha
    assert np.array_equal(heap_angles(rows), heap_angles(ref_rows))
    assert np.array_equal(heap_angles(phi), heap_angles(ref_phi))
    assert scaled_frobenius(np.full((2, 2), 1e308))[1] == math.inf


# Per-node reference: the definitions, one node and one bit at a time.

def _reference(vector, t):
    """(heap angles, LOAD bit row, signed leaf amplitudes, tie distances)."""
    big_n = len(vector)
    weight = [float(x) * float(x) for x in vector]

    def node(r):
        w = r.bit_length() - 1
        span = big_n >> w
        lo = (r - (1 << w)) * span
        level = weight[lo: lo + span]
        while len(level) > 1:
            level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
        return level[0]

    angles, bits, amps, ties = [], [], [], []
    for r in range(1, big_n):
        parent = node(r)
        ratio = min(1.0, max(0.0, node(2 * r) / parent)) if parent > 0 else 1.0
        theta = 2.0 * math.acos(math.sqrt(ratio))
        angles.append(theta)
        x = theta * 2 ** t / (2 * math.pi) + 0.5
        ties.append(abs(x - round(x)))
        bits.extend(int(c) for c in format(math.floor(x), f"0{t}b"))
        amp0, amp1 = math.cos(theta / 2), math.sin(theta / 2)
        if 2 * r >= big_n:
            amp0 *= -1.0 if vector[2 * r - big_n] < 0 else 1.0
            amp1 *= -1.0 if vector[2 * r - big_n + 1] < 0 else 1.0
        amps.append((amp0, amp1))
    bits.extend(1 if x < 0 else 0 for x in vector)
    return angles, bits, amps, ties


_AMPLITUDE = st.one_of(st.floats(-10.0, 10.0, allow_subnormal=False),
                       st.sampled_from([0.0, -0.0, 1e-160, -1e-160, 1e-300]))


@st.composite
def _vector_arrays(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    flat = draw(st.lists(_AMPLITUDE, min_size=count << n,
                         max_size=count << n))
    vectors = np.array(flat).reshape(count, 1 << n)
    zero_rows = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    vectors[np.array(zero_rows)] = 0.0
    return vectors


@settings(max_examples=150, deadline=None)
@given(vectors=_vector_arrays(), t=st.integers(1, 12))
def test_array_functions_match_per_node_reference(vectors, t):
    angles = heap_angles(vectors)
    rows = fixed_rows_for_trees(vectors, t)
    folded = prerotated_angles(vectors)
    assert rows.dtype == np.uint8
    for k, vector in enumerate(vectors):
        want_angles, want_bits, want_amps, ties = _reference(vector, t)
        assert np.abs(angles[k] - want_angles).max() <= 1e-12
        # Two acos implementations may round a tie either way.
        near_tie = np.repeat(np.array(ties) < 1e-9, t)
        got_bits = rows[k][: len(near_tie)]
        want = np.array(want_bits[: len(near_tie)])
        assert np.array_equal(got_bits[~near_tie], want[~near_tie])
        assert list(rows[k][len(near_tie):]) == want_bits[len(near_tie):]
        cos, sin = np.cos(folded[k] / 2), np.sin(folded[k] / 2)
        assert np.abs(cos - [a for a, _ in want_amps]).max() <= 1e-12
        assert np.abs(sin - [b for _, b in want_amps]).max() <= 1e-12


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


@pytest.mark.parametrize("c", [1e-200, 1e200])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_qnorm_profile_scales_with_the_matrix(c, p):
    a = np.random.default_rng(8).uniform(-4, 4, (4, 4))
    ref, got = qnorm_profile(a, p), qnorm_profile(c * a, p)
    assert got.mu_p == pytest.approx(c * ref.mu_p, rel=1e-12)
    np.testing.assert_allclose(got.chi_row, ref.chi_row, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.chi_col, ref.chi_col, rtol=0, atol=1e-12)


def test_tiny_and_huge_qnorm_and_symmetrized_targets():
    a = np.diag([1.0, 2.0])
    for p in (0.5, 1.0):
        assert qnorm_profile(a * 1e-200, p).mu_p == pytest.approx(2e-200)
    _assert_families_equal(symmetrized_targets(a * 1e-200),
                           symmetrized_targets(a))
    _assert_families_equal(qnorm_targets(a * 1e200, 0.5),
                           qnorm_targets(a, 0.5))
    # ||A||_F is a float, but mu_1 = 1.5e308 * sqrt(2) is not.
    huge = np.array([[1.5e308, 0.0], [0.0, 1e300], [0.0, 1e300]])
    with pytest.raises(ValueError, match="mu_p overflows a float"):
        qnorm_profile(huge, 1.0)


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


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_qnorm_of_entries_far_apart(p):
    """Row 1's power sum underflows for p = 1 (1e-400) and column 1's for
    p = 0; the report stays finite and every target state has unit norm."""
    a = np.array([[1.0, 0.0], [0.0, 1e-200]])
    data = qnorm_profile(a, p)
    assert data.mu_p == 1.0
    assert all(math.isfinite(chi) for chi in data.chi_row + data.chi_col)
    for family in qnorm_targets(a, p):
        for state in family:
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)


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
# chi angles are the report's own, so only the families differ.  A family's
# states do not depend on the scale of their row or column, so the q-norm
# reference divides each by its largest |entry| before taking powers; the
# symmetrized reference takes the matrix scaled exactly by a power of two
# (``scaled_frobenius``), whose squared entries neither underflow nor
# overflow.

def _unit_row_powers(row, q):
    """|row_k|^q over the row's q-power sum's root, with 0^0 := 0."""
    row = np.abs(row) / np.max(np.abs(row))
    norm = math.sqrt(_power_sum(row, 2 * q))
    return [x ** q / norm if x else 0.0 for x in row]


def _loop_qnorm_targets(a, p):
    data = qnorm_profile(a, p)
    chi_row, chi_col = data.chi_row, data.chi_col
    row_units = [_unit_row_powers(row, p) for row in a]
    col_units = [_unit_row_powers(col, 1 - p) for col in a.T]
    nn = a.shape[0]
    width = 2 * nn
    big = 4 * nn
    psi, phi, psi_sym, phi_sym = [], [], [], []
    for j in range(nn):
        pv, sp, sf = (np.zeros(width * width), np.zeros(big * big),
                      np.zeros(big * big))
        for k in range(nn):
            coeff = math.copysign(row_units[j][k], a[j, k])
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
            coeff = col_units[k][j]
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
    if not np.any(a):
        with pytest.raises(DegenerateInputError):
            symmetrized_targets(a)
        return
    _assert_families_equal(symmetrized_targets(a),
                           _loop_symmetrized_targets(scaled_frobenius(a)[0]))


def test_zero_tree_convention():
    assert not np.any(heap_angles(np.zeros((1, 4))))
    assert not np.any(fixed_rows_for_trees(np.zeros((1, 4)), 3))
