"""Classical preprocessing: binary norm trees, rotation angles, sign bits,
fixed-point quantization, pre-rotated leaf states, the q-norm report, and the
appendix target-state families.

The tree for a real vector beta stores |beta_j|^2 at the leaves plus sign
bits; every internal node is the sum of its children.  Rotation angles are
indexed in heap order: theta_1 at the root, the step-w angles at heap indices
2^(w-1) .. 2^w - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateInputError(ValueError):
    pass


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngleTree:
    """Squared partial norms by level plus leaf signs; N = 2^n leaves."""

    n: int
    nodes: tuple  # nodes[w] = tuple of 2^w squared partial norms, w = 0..n
    signs: tuple  # N bits, 1 marks a negative amplitude

    @property
    def num_leaves(self):
        return 1 << self.n

    @property
    def root(self):
        return self.nodes[0][0]

    def node(self, r):
        """Heap access: node r (1-based) lives at level floor(log2 r)."""
        w = r.bit_length() - 1
        return self.nodes[w][r - (1 << w)]

    def angle(self, r):
        """theta_r = 2 acos(sqrt(left child / node)); 0 for zero-norm nodes."""
        if r >= self.num_leaves:
            raise IndexError(f"internal node index {r} out of range")
        parent = self.node(r)
        if parent <= 0.0:
            return 0.0
        left = self.node(2 * r)
        ratio = min(1.0, max(0.0, left / parent))
        return 2.0 * math.acos(math.sqrt(ratio))

    def is_zero(self):
        return self.root == 0.0


def build_tree(beta, n=None) -> AngleTree:
    """Build the tree for a length-2^n real vector (not all zero)."""
    vec = np.asarray(beta, dtype=float)
    if n is None:
        n = int(vec.size).bit_length() - 1
    if vec.size != (1 << n):
        raise ValueError(f"expected 2^{n} amplitudes, got {vec.size}")
    if not np.any(vec):
        raise DegenerateInputError("amplitude vector is all zero")
    return _tree_from_values(n, vec)


def zero_tree(n) -> AngleTree:
    """All-zero tree; by convention every angle is 0 (rotate nothing)."""
    nodes = tuple(tuple(0.0 for _ in range(1 << w)) for w in range(n + 1))
    return AngleTree(n, nodes, tuple(0 for _ in range(1 << n)))


def _tree_from_values(n, vec):
    signs = tuple(1 if x < 0 else 0 for x in vec)
    level = [float(x) * float(x) for x in vec]
    levels = [tuple(level)]
    for _ in range(n):
        level = [level[2 * i] + level[2 * i + 1] for i in range(len(level) // 2)]
        levels.append(tuple(level))
    return AngleTree(n, tuple(reversed(levels)), signs)


def reconstruct_state(tree: AngleTree) -> np.ndarray:
    """Apply the rotation recursion classically; returns beta / ||beta||."""
    n = tree.n
    amps = np.ones(1)
    for w in range(n):
        nxt = np.empty(2 << w)
        for i, a in enumerate(amps):
            theta = tree.angle((1 << w) + i)
            nxt[2 * i] = a * math.cos(theta / 2.0)
            nxt[2 * i + 1] = a * math.sin(theta / 2.0)
        amps = nxt
    return amps * np.array([-1.0 if s else 1.0 for s in tree.signs])


@dataclass(frozen=True)
class QuantizedAngle:
    """t-bit fixed-point angle on the 2*pi/2^t rounding grid."""

    bits: str
    value: float

    @property
    def t(self):
        return len(self.bits)

    @property
    def integer(self):
        return int(self.bits, 2) if self.bits else 0


def quantize_angle(theta, t) -> QuantizedAngle:
    """Round theta to the nearest multiple of 2*pi/2^t, ties up."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not -1e-12 <= theta <= math.pi + 1e-9:
        raise ValueError("theta must lie in [0, pi]")
    b = math.floor(theta * (1 << t) / TWO_PI + 0.5)
    value = TWO_PI * b / (1 << t)
    return QuantizedAngle(format(b, f"0{t}b"), value)


def quantized_tree_bits(tree: AngleTree, t):
    """Angle bitstrings (heap order) and sign bits for the fixed-point path."""
    bits = [quantize_angle(tree.angle(r), t).bits
            for r in range(1, tree.num_leaves)]
    return bits, tree.signs


@dataclass(frozen=True)
class PreRotatedLeaf:
    """Single-qubit amplitudes encoding angle r, signs folded at leaf level."""

    r: int
    amp0: float
    amp1: float

    def folded_angle(self):
        """theta in [0, 4*pi) with Ry(theta)|0> = amp0|0> + amp1|1>."""
        theta = 2.0 * math.atan2(self.amp1, self.amp0)
        if theta < 0:
            theta += 2.0 * TWO_PI
        return theta


def prerotated_leaves(tree: AngleTree):
    """The N-1 pre-rotated single-qubit states, heap order."""
    out = []
    half = tree.num_leaves // 2
    for r in range(1, tree.num_leaves):
        theta = tree.angle(r)
        amp0 = math.cos(theta / 2.0)
        amp1 = math.sin(theta / 2.0)
        if r >= half:
            if tree.signs[2 * r - tree.num_leaves]:
                amp0 = -amp0
            if tree.signs[2 * r - tree.num_leaves + 1]:
                amp1 = -amp1
        out.append(PreRotatedLeaf(r, amp0, amp1))
    return out


# ---------------------------------------------------------------------------
# Matrix-level quantities
# ---------------------------------------------------------------------------

def pad_to_power_of_two(a):
    """Zero-pad a matrix so both dimensions are powers of two."""
    a = np.asarray(a, dtype=float)
    rows = 1 << max(0, int(a.shape[0] - 1).bit_length())
    cols = 1 << max(0, int(a.shape[1] - 1).bit_length())
    rows = max(rows, 1)
    cols = max(cols, 1)
    out = np.zeros((rows, cols))
    out[: a.shape[0], : a.shape[1]] = a
    return out


def matrix_trees(a):
    """Row trees, the row-norm tree, and alpha = Frobenius norm.

    Zero rows yield degenerate all-zero trees (angles 0 by convention).
    """
    a = np.asarray(a, dtype=float)
    rows, cols = a.shape
    if rows != cols or rows & (rows - 1):
        raise ValueError("matrix must be square with power-of-two size")
    if not np.any(a):
        raise DegenerateInputError("matrix is all zero")
    n = rows.bit_length() - 1
    row_trees = [build_tree(row, n) if np.any(row) else zero_tree(n)
                 for row in a]
    row_norms = np.linalg.norm(a, axis=1)
    phi_tree = build_tree(row_norms, n)
    alpha = float(np.linalg.norm(a))
    return row_trees, phi_tree, alpha


def _power_sum(v, q):
    """sum |v_i|^q with the 0^0 := 0 convention."""
    av = np.abs(np.asarray(v, dtype=float))
    if q == 0:
        return float(np.count_nonzero(av))
    nz = av[av > 0]
    return float(np.sum(nz ** q))


def s_q(a, q):
    """S_q(A) = max_j sum_k |A_jk|^q (q-th power of the max row q-norm)."""
    a = np.asarray(a, dtype=float)
    return max(_power_sum(row, q) for row in a)


@dataclass(frozen=True)
class QNormData:
    p: float
    mu_p: float
    chi_row: tuple
    chi_col: tuple


def _qnorm_terms(a, p):
    """mu_p, the row and column power sums, and the chi angles."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    s2p = s_q(a, 2 * p)
    s2q = s_q(a.T, 2 * (1 - p))
    if s2p == 0 or s2q == 0:
        raise DegenerateInputError("matrix is all zero")
    mu = math.sqrt(s2p * s2q)
    row_pow = [_power_sum(row, 2 * p) for row in a]
    col_pow = [_power_sum(col, 2 * (1 - p)) for col in a.T]
    if any(x == 0 for x in row_pow) or any(x == 0 for x in col_pow):
        raise DegenerateInputError("zero row or column makes a chi angle degenerate")
    chi_row = tuple(math.acos(min(1.0, math.sqrt(x / s2p))) for x in row_pow)
    chi_col = tuple(math.acos(min(1.0, math.sqrt(x / s2q))) for x in col_pow)
    return mu, row_pow, col_pow, chi_row, chi_col


def qnorm_profile(a, p) -> QNormData:
    """mu_p and the chi angles of any M x N matrix, in O(MN)."""
    mu, _, _, chi_row, chi_col = _qnorm_terms(np.asarray(a, dtype=float), p)
    return QNormData(p, mu, chi_row, chi_col)


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


def qnorm_targets(a, p):
    """The q-norm target families ``(psi, phi, psi_sym, phi_sym)``.

    Plain states live on two (n+1)-bit registers, |a, b> -> a*2N + b, so
    they are (2N)^2-dimensional; the symmetrized ones are (4M)^2-dimensional.
    Row states come first in the symmetrized families, then column states.
    """
    a = np.asarray(a, dtype=float)
    _, row_pow, col_pow, chi_row, chi_col = _qnorm_terms(a, p)
    m_rows, n_cols = a.shape
    if m_rows != n_cols:
        raise ValueError("plain q-norm targets need a square matrix")
    row_coeff = np.copysign(np.abs(a) ** p, a) / np.sqrt(row_pow)[:, None]
    col_coeff = (np.abs(a) ** (1 - p)).T / np.sqrt(col_pow)[:, None]
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
    a = np.asarray(a, dtype=float)
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
