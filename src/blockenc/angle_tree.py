"""Classical preprocessing: rotation angles, sign bits, pre-rotated leaf
angles, the q-norm report, and the appendix target-state families.

The angle functions take a (K, 2^n) array of real amplitude vectors, one per
row; a single vector is a one-row array.  The binary norm tree of a vector has
its squared amplitudes at the leaves, and every internal node is the sum of
its children.  Rotation angles are indexed in heap order: theta_1 at the
root, the step-w angles at heap indices 2^(w-1) .. 2^w - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class DegenerateInputError(ValueError):
    pass


def heap_angles(vectors):
    """Rotation angles of each row of a (K, 2^n) array of amplitude vectors.

    Column r - 1 holds theta_r = 2 acos(sqrt(left child / node)) for heap
    index r, where a node is the sum of its children's squared amplitudes;
    a zero-norm node gets 0 (rotate nothing).
    """
    level = np.square(np.asarray(vectors, dtype=float))
    count, big_n = level.shape
    angles = np.zeros((count, big_n - 1))
    while level.shape[1] > 1:
        left, right = level[:, 0::2], level[:, 1::2]
        level = left + right
        width = level.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.clip(left / level, 0.0, 1.0)
        angles[:, width - 1: 2 * width - 1] = np.where(
            level > 0, 2.0 * np.arccos(np.sqrt(ratio)), 0.0)
    return angles


def prerotated_angles(vectors):
    """Folded angles in [0, 4*pi) of each row of a (K, 2^n) array.

    Ry(theta_r)|0> = cos(theta_r/2)|0> + sin(theta_r/2)|1> with the leaf
    signs folded into the last level's amplitudes.
    """
    vectors = np.asarray(vectors, dtype=float)
    half = heap_angles(vectors) / 2.0
    amp0, amp1 = np.cos(half), np.sin(half)
    last = np.s_[:, vectors.shape[1] // 2 - 1:]
    amp0[last][vectors[:, 0::2] < 0] *= -1.0
    amp1[last][vectors[:, 1::2] < 0] *= -1.0
    theta = 2.0 * np.arctan2(amp1, amp0)
    return np.where(theta < 0, theta + 2.0 * TWO_PI, theta)


def reconstruct_state(vectors):
    """Apply the rotation recursion classically: each row over its norm."""
    vectors = np.asarray(vectors, dtype=float)
    half = heap_angles(vectors) / 2.0
    amps = np.ones((vectors.shape[0], 1))
    while amps.shape[1] < vectors.shape[1]:
        width = amps.shape[1]
        step = half[:, width - 1: 2 * width - 1]
        amps = np.stack([amps * np.cos(step), amps * np.sin(step)],
                        axis=2).reshape(len(amps), -1)
    return np.where(vectors < 0, -amps, amps)


# ---------------------------------------------------------------------------
# Matrix-level quantities
# ---------------------------------------------------------------------------

def pad_to_power_of_two(a):
    """Zero-pad a matrix so both dimensions are powers of two."""
    a = np.asarray(a, dtype=float)
    rows = 1 << max(0, int(a.shape[0] - 1).bit_length())
    cols = 1 << max(0, int(a.shape[1] - 1).bit_length())
    out = np.zeros((rows, cols))
    out[: a.shape[0], : a.shape[1]] = a
    return out


def _power_of_two_scaled(a):
    """``(a * 2^-e, e)`` for the power of two 2^e just above the largest
    |entry| of ``a``; a power-of-two scale is exact."""
    a = np.asarray(a, dtype=float)
    _, e = math.frexp(float(np.max(np.abs(a), initial=0.0)))
    return np.ldexp(a, -e), e


def scaled_frobenius(a):
    """``(a * 2^-e, alpha)``: ``a`` scaled by the power of two 2^e just
    above its largest |entry|, and its Frobenius norm.

    Squaring the scaled entries neither overflows nor underflows, and a
    power-of-two scale is exact, so ordinary inputs give the same angles
    and alpha as the unscaled matrix.  alpha is inf if the norm itself
    overflows a float.
    """
    scaled, e = _power_of_two_scaled(a)
    with np.errstate(over="ignore"):
        return scaled, float(np.ldexp(np.linalg.norm(scaled), e))


def matrix_trees(a):
    """Scaled row vectors, the one-row row-norm vector, and alpha = ||a||_F.

    ``a`` is an M x N matrix of power-of-two sides; a zero row has all its
    angles 0 by convention.
    """
    a = np.asarray(a, dtype=float)
    rows, cols = a.shape
    if rows & (rows - 1) or cols & (cols - 1):
        raise ValueError("matrix sides must be powers of two")
    scaled, alpha = scaled_frobenius(a)
    if alpha == 0:
        raise DegenerateInputError("matrix is all zero")
    return scaled, np.linalg.norm(scaled, axis=1)[None, :], alpha


def _power_sum(v, q):
    """sum |v_i|^q with the 0^0 := 0 convention."""
    av = np.abs(np.asarray(v, dtype=float))
    if q == 0:
        return float(np.count_nonzero(av))
    nz = av[av > 0]
    return float(np.sum(nz ** q))


@dataclass(frozen=True)
class QNormData:
    p: float
    mu_p: float
    chi_row: tuple
    chi_col: tuple


def _qnorm_terms(a, p):
    """mu_p and the chi angles.

    The power sums are those of ``a`` scaled as in ``scaled_frobenius``, so
    that the largest ones neither underflow nor overflow; mu_p is
    homogeneous of degree one and is scaled back, and the chi angles do not
    depend on the scale.  A row or column far below the largest one may
    have a power sum that underflows to 0; its chi angle is then pi/2, the
    limit of the exact value.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    a = np.asarray(a, dtype=float)
    if not a.any():
        raise DegenerateInputError("matrix is all zero")
    if not (a.any(axis=1).all() and a.any(axis=0).all()):
        raise DegenerateInputError(
            "zero row or column makes a chi angle degenerate")
    a, e = _power_of_two_scaled(a)
    row_pow = [_power_sum(row, 2 * p) for row in a]
    col_pow = [_power_sum(col, 2 * (1 - p)) for col in a.T]
    s2p, s2q = max(row_pow), max(col_pow)
    try:
        mu = math.ldexp(math.sqrt(s2p * s2q), e)
    except OverflowError:
        raise ValueError("mu_p overflows a float") from None
    chi_row = tuple(math.acos(min(1.0, math.sqrt(x / s2p))) for x in row_pow)
    chi_col = tuple(math.acos(min(1.0, math.sqrt(x / s2q))) for x in col_pow)
    return mu, chi_row, chi_col


def qnorm_profile(a, p) -> QNormData:
    """mu_p and the chi angles of any M x N matrix, in O(MN)."""
    return QNormData(p, *_qnorm_terms(a, p))


def _scatter(coeff, dim, *placements):
    """One target vector per row of ``coeff``, as a tuple of 1-D vectors.

    Each placement ``(scale, index)`` writes ``coeff[i, c] * scale[i]`` at
    position ``index[i, c]`` of vector i; ``scale`` may be a scalar.
    """
    out = np.zeros((coeff.shape[0], dim))
    rows = np.arange(coeff.shape[0])[:, None]
    for scale, index in placements:
        out[rows, index] = coeff * np.reshape(scale, (-1, 1))
    return tuple(out)


def _unit_powers(m, q):
    """|m|^q (0^0 := 0) with each row scaled to unit norm.  Each row is
    first scaled exactly by the power of two just above its largest
    |entry|, so its power sum does not underflow."""
    _, e = np.frexp(np.max(np.abs(m), axis=1, keepdims=True))
    m = np.abs(np.ldexp(m, -e))
    powers = np.where(m > 0, m ** q, 0.0)
    return powers / np.linalg.norm(powers, axis=1, keepdims=True)


def qnorm_targets(a, p):
    """The q-norm target families ``(psi, phi, psi_sym, phi_sym)``.

    Plain states live on two (n+1)-bit registers, |a, b> -> a*2N + b, so
    they are (2N)^2-dimensional; the symmetrized ones are (4M)^2-dimensional.
    Row states come first in the symmetrized families, then column states.
    """
    a = np.asarray(a, dtype=float)
    _, chi_row, chi_col = _qnorm_terms(a, p)
    m_rows, n_cols = a.shape
    if m_rows != n_cols:
        raise ValueError("plain q-norm targets need a square matrix")
    row_coeff = np.copysign(_unit_powers(a, p), a)
    col_coeff = _unit_powers(a.T, 1 - p)
    cos_r, sin_r = np.cos(chi_row), np.sin(chi_row)
    cos_c, sin_c = np.cos(chi_col), np.sin(chi_col)
    j = np.arange(m_rows)[:, None]
    k = np.arange(n_cols)[None, :]

    width = 2 * n_cols
    psi = _scatter(row_coeff, width * width, (cos_r, j * width + k),
                   (sin_r, j * width + n_cols + k))
    phi = _scatter(col_coeff, width * width, (cos_c, (j * width + k).T),
                   (sin_c, ((n_cols + j) * width + k).T))

    big = 4 * m_rows
    dim = big * big
    psi_sym = (_scatter(row_coeff, dim, (cos_r, j * big + m_rows + k),
                        (sin_r, j * big + 3 * m_rows + k))
               + _scatter(col_coeff, dim, (cos_c, ((m_rows + k) * big + j).T),
                          (sin_c, ((m_rows + k) * big + 2 * m_rows + j).T)))
    phi_sym = (_scatter(row_coeff, dim, (cos_r, (m_rows + k) * big + j),
                        (sin_r, (3 * m_rows + k) * big + j))
               + _scatter(col_coeff, dim, (cos_c, (j * big + m_rows + k).T),
                          (sin_c, ((2 * m_rows + j) * big + m_rows + k).T)))
    return psi, phi, psi_sym, phi_sym


def symmetrized_targets(a):
    """The Frobenius symmetrized state families psi_i, phi_i.

    Indices live on two ell-qubit registers with ell = log2(M) + 1 and
    M >= N both powers of two; vectors are 2^(2*ell)-dimensional.
    """
    a = _power_of_two_scaled(a)[0]
    m_rows, n_cols = a.shape
    if m_rows & (m_rows - 1) or n_cols & (n_cols - 1):
        raise ValueError("pad to power-of-two shape first")
    if m_rows < n_cols:
        raise ValueError("need M >= N (block-encode the transpose instead)")
    fro = float(np.linalg.norm(a))
    if fro == 0:
        raise DegenerateInputError("matrix is all zero")
    row_norms = np.linalg.norm(a, axis=1)
    # A zero row has a zero state: its entries divide by 1 instead of 0.
    row_coeff = a / np.where(row_norms > 0, row_norms, 1.0)[:, None]
    col_coeff = np.tile(row_norms / fro, (n_cols, 1))
    j = np.arange(m_rows)[:, None]
    k = np.arange(n_cols)[None, :]
    big = 2 * m_rows
    dim = big * big
    into_row = j * big + m_rows + k      # |j>|M+k>
    into_col = (m_rows + k) * big + j    # |M+k>|j>
    psi = (_scatter(row_coeff, dim, (1.0, into_row))
           + _scatter(col_coeff, dim, (1.0, into_col.T)))
    phi = (_scatter(row_coeff, dim, (1.0, into_col))
           + _scatter(col_coeff, dim, (1.0, into_row.T)))
    return psi, phi
