"""Sparse statevector simulation and block extraction.

A state is a list of basis indices with complex amplitudes, held as arrays:
the indices as a uint64 bitset with one row per 64-qubit word (bit q of an
index is bit q % 64 of word q // 64, so circuits of any width fit) and the
amplitudes as a complex128 vector.  Permutation and diagonal gates act on
every entry at once as masked XORs and multiplies.  Only the flip kinds take
controls.  Block-encoding circuits keep their ancillas basis-correlated with
the address, so the support stays small except through H layers.

A branching gate (H, G, G^dagger or RY, or a rotation-block slot on the
entries whose controls pass) works in this order: it computes both outcome
rows' amplitudes, summing the entries that meet (equal but for the target
bit, found by one sort); prunes amplitudes below ``PRUNE_THRESHOLD``; counts
the kept support, kept row 0 plus kept row 1 plus the untouched entries;
checks the support cap on that count; and only then allocates the new keys
and amplitudes and writes the three parts into slices.  A branch that could
exceed the cap counts its kept entries in bounded chunks before it builds
the rows, so a refused branch allocates nothing sized by the new support.

``run``, ``run_circuit``, ``extract_block`` and ``dense_unitary`` apply
each op of a circuit whole, as ``SparseState.apply`` does.  A default-form
swap layer is one masked permutation and phase gather per pair, its product
on (a, b, c) computed once per control polarity and direction by the gate
kernels, so the support never grows inside it.  A rotation block is its
fanout, one RY branch per slot on the entries whose controls are all 1, and
the fanout again.  A layered swap layer of one pair expands to the same
gates as the default form, and goes whole the same way.  Every other
compound op (a macro, a swap network, a Clifford layer or a layered swap
layer of two pairs or more) runs its expansion gate by gate.

``extract_block`` and ``dense_unitary`` run all their input columns in one
pass: column k carries its index in bits at or above the circuit's qubit
count, which no gate touches, so the support cap bounds the total support of
the column-batched state.
"""
from __future__ import annotations

import cmath
import functools
import math
import os
from types import MappingProxyType

import numpy as np

from .circuit import (Circuit, Compound, Gate, GateKind, RotationBlock,
                      SwapLayer)

DEFAULT_SUPPORT_CAP = 1 << 20
PRUNE_THRESHOLD = 1e-14
_SUPPORT_CAP_ENV = "BLOCKENC_SUPPORT_CAP"


class SimulationError(Exception):
    pass


class SupportCapError(SimulationError):
    """Raised when the sparse support outgrows the configured cap."""


def support_cap_default() -> int:
    value = os.environ.get(_SUPPORT_CAP_ENV)
    return int(value) if value else DEFAULT_SUPPORT_CAP


_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _g_matrix():
    s = np.diag([1.0, 1.0j])
    t = np.diag([1.0, cmath.exp(1j * math.pi / 4)])
    return s.conj().T @ _H @ t @ _H @ s


_G = _g_matrix()


def _ry_matrix(theta):
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


_FLIPS = frozenset((GateKind.X, GateKind.CNOT, GateKind.FANOUT_CNOT,
                    GateKind.TOFFOLI, GateKind.MCX))
# Diagonal kinds: the phase applied where every target qubit is |1>.
_PHASES = {GateKind.Z: -1.0 + 0.0j, GateKind.S: 1j, GateKind.SDG: -1j,
           GateKind.T: cmath.exp(1j * math.pi / 4),
           GateKind.TDG: cmath.exp(-1j * math.pi / 4)}
_FIXED_BRANCHES = {GateKind.H: _H, GateKind.G: _G, GateKind.GDG: _G.conj().T}

_WORD = 64
# Outcome runs per chunk when a branch's kept support is counted ahead.
_CHUNK = 1 << 14


@functools.lru_cache(maxsize=1 << 16)
def _locate(q):
    """(word, mask) of qubit ``q``."""
    w, b = divmod(q, _WORD)
    return w, np.uint64(1 << b)


@functools.lru_cache(maxsize=1 << 16)
def _word_masks(qubits):
    """((word, mask), ...) covering the qubit tuple ``qubits``."""
    masks = {}
    for q in qubits:
        w, b = divmod(q, _WORD)
        masks[w] = masks.get(w, 0) | (1 << b)
    return tuple((w, np.uint64(m)) for w, m in masks.items())


@functools.lru_cache(maxsize=1 << 16)
def _control_terms(controls):
    """((word, mask, required bits), ...) for polarized ``controls``."""
    masks, values = {}, {}
    for q, positive in controls:
        w, b = divmod(q, _WORD)
        masks[w] = masks.get(w, 0) | (1 << b)
        if positive:
            values[w] = values.get(w, 0) | (1 << b)
    return tuple((w, np.uint64(m), np.uint64(values.get(w, 0)))
                 for w, m in masks.items())


def _pack(indices, words):
    keys = np.empty((words, len(indices)), dtype=np.uint64)
    low = (1 << _WORD) - 1
    for w in range(words):
        keys[w] = [(i >> (_WORD * w)) & low for i in indices]
    return keys


def _unpack(keys):
    ints = keys[0].tolist()
    for w in range(1, keys.shape[0]):
        shift = _WORD * w
        ints = [lo | (hi << shift) for lo, hi in zip(ints, keys[w].tolist())]
    return ints


def _read(keys, qubits):
    """Register value of every entry; qubits listed most-significant first."""
    value = np.zeros(keys.shape[1], dtype=np.int64)
    for q in qubits:
        w, m = _locate(q)
        value = (value << 1) | ((keys[w] & m) != 0)
    return value


def _runs(rows):
    """Sort order of the keys whose word rows are ``rows``, and the sorted
    positions that start a run of equal keys.  Neighbours are compared one
    word row at a time, so no sorted copy of the keys is made."""
    order = np.lexsort(rows[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for row in rows:
        ordered = row[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return order, starts.nonzero()[0]


def _outcomes(m, amps, on, runs, lo, hi):
    """Rows 0 and 1 of ``m`` applied to runs ``lo``..``hi`` - 1: each entry's
    amplitude times the column of ``m`` for its bit (``on``), summed over
    the run.  ``runs`` is None when no entries meet: each entry is its own
    run and ``on`` is the one column they all take."""
    if runs is None:
        return m[:, on, None] * amps[lo:hi]
    order, starts = runs
    first = starts[lo]
    end = starts[hi] if hi < len(starts) else len(order)
    part = order[first:end]
    return np.add.reduceat(m[:, on[part].view(np.int8)] * amps[part],
                           starts[lo:hi] - first, axis=1)


def _take(keys, index, out):
    """Columns ``index`` of ``keys`` into ``out``, one word row at a time.
    Mode 'clip' writes straight into ``out`` ('raise' buffers it); every
    index is in range."""
    for row, dst in zip(keys, out):
        row.take(index, out=dst, mode="clip")


@functools.lru_cache(maxsize=4)
def _pair_product(positive, inverted):
    """One default-form swap-layer pair as (moves, phases) on local qubits
    (a, b, c) = (0, 1, 2), for a control of polarity ``positive``.

    A one-pair layer's own expansion runs through the gate kernels on all 8
    local basis states at once, column v carrying v above the local bits.
    The product maps local value v to ``phases[v]`` times v with local qubit
    p flipped where ``flip[v]`` holds, for each (p, flip) of ``moves``; it
    raises unless the product keeps one entry per column.
    """
    layer = SwapLayer(((2, positive),), ((0, 1),))
    state = SparseState(3, {v << 3 | v: 1.0 for v in range(8)},
                        support_cap=64)
    for g in (layer.adjoint() if inverted else layer).expansion:
        state._apply_gate(g)
    keys, amps = state._keys[0], state._amps
    if len(amps) != 8:
        raise SimulationError("a swap-layer pair is not a monomial product")
    column = (keys >> np.uint64(3)).astype(np.int64)
    flips = np.empty(8, dtype=np.int64)
    flips[column] = (keys & np.uint64(7)).astype(np.int64) ^ column
    phases = np.empty(8, dtype=complex)
    phases[column] = amps
    moves = tuple((p, flip) for p in range(3)
                  if (flip := (flips >> p) & 1 != 0).any())
    return moves, phases


class SparseState:
    """Mutable sparse state; single owner per simulation run.

    ``amplitudes`` is a read-only ``{basis index: amplitude}`` view of the
    arrays the gates act on.
    """

    def __init__(self, num_qubits, amplitudes=None, support_cap=None):
        amplitudes = dict(amplitudes) if amplitudes else {0: 1.0 + 0.0j}
        indices = list(amplitudes)
        width = max(num_qubits, max(i.bit_length() for i in indices))
        self.num_qubits = num_qubits
        self.support_cap = (support_cap if support_cap is not None
                            else support_cap_default())
        self.pruned_weight = 0.0
        self._keys = _pack(indices, max(1, -(-width // _WORD)))
        self._amps = np.array([amplitudes[i] for i in indices], dtype=complex)
        self.peak_support = len(indices)
        self._view = None

    @classmethod
    def basis(cls, num_qubits, index=0, **kw):
        return cls(num_qubits, {index: 1.0 + 0.0j}, **kw)

    @property
    def amplitudes(self):
        if self._view is None:
            self._view = MappingProxyType(
                dict(zip(_unpack(self._keys), self._amps.tolist())))
        return self._view

    def norm(self):
        a = self._amps
        return math.sqrt(float(np.sum(a.real ** 2 + a.imag ** 2)))

    def apply(self, op):
        """Apply one op whole: a gate, a default-form swap layer as one
        permutation per pair, a rotation block as one controlled branch per
        slot, and any other op gate by gate.  A one-pair layered layer
        expands to the default form's nine gates (its fanout is the CNOT
        c->b), so it goes whole too."""
        if isinstance(op, Gate):
            self._apply_gate(op)
        elif isinstance(op, SwapLayer) and (not op.layered
                                            or len(op.pairs) == 1):
            (c, positive), = op.controls
            moves, phases = _pair_product(positive, op.inverted)
            for a, b in op.pairs:
                self._permute((a, b, c), moves, phases)
        elif isinstance(op, RotationBlock):
            self._rotate(op)
        elif isinstance(op, Compound):
            for g in op.expansion:
                self._apply_gate(g)
        else:
            raise SimulationError(f"unknown op {op!r}")
        return self

    def _run_ops(self, ops):
        for op in ops:
            self.apply(op)
        return self

    def _permute(self, qubits, moves, phases):
        """Apply a ``_pair_product`` to ``qubits`` (local order)."""
        keys = self._keys
        value = _read(keys, qubits[::-1])
        for p, flip in moves:
            w, m = _locate(qubits[p])
            np.bitwise_xor(keys[w], m, out=keys[w], where=flip[value])
        np.multiply(self._amps, phases[value], out=self._amps)
        self._view = None

    def _rotate(self, block):
        """The fanout, RY(theta) (RY(-theta) inverted) on each slot's target
        where the slot's controls are all 1, then the fanout again: per slot
        the product of flip, RY(-theta/2), flip, RY(theta/2).  Slots on one
        target commute, so the adjoint runs them in order too."""
        fan = block.fan()
        if fan is not None:
            self._apply_gate(fan)
        sign = -1.0 if block.inverted else 1.0
        for *controls, target, theta in zip(*block.columns, block.thetas):
            self._branch(target, _ry_matrix(sign * theta),
                         tuple((q, True) for q in controls))
        if fan is not None:
            self._apply_gate(fan)

    def _controls_pass(self, controls):
        keys = self._keys
        hit = None
        for w, m, v in _control_terms(controls):
            term = (keys[w] & m) == v
            hit = term if hit is None else np.logical_and(hit, term, out=hit)
        return hit

    def _apply_gate(self, g):
        kind = g.kind
        keys, amps = self._keys, self._amps
        if kind in _FLIPS:
            where = self._controls_pass(g.controls) if g.controls else True
            for w, m in _word_masks(g.targets):
                np.bitwise_xor(keys[w], m, out=keys[w], where=where)
        elif g.controls:
            raise SimulationError(f"{kind.value} takes no controls")
        elif kind in _PHASES:
            on = None
            for w, m in _word_masks(g.targets):
                term = (keys[w] & m) == m
                on = term if on is None else np.logical_and(on, term, out=on)
            np.multiply(amps, _PHASES[kind], out=amps, where=on)
        elif kind is GateKind.SWAP:
            (wa, ma), (wb, mb) = (_locate(q) for q in g.targets)
            flip = ((keys[wa] & ma) != 0) ^ ((keys[wb] & mb) != 0)
            np.bitwise_xor(keys[wa], ma, out=keys[wa], where=flip)
            np.bitwise_xor(keys[wb], mb, out=keys[wb], where=flip)
        elif kind in _FIXED_BRANCHES:
            self._branch(g.targets[0], _FIXED_BRANCHES[kind])
        elif kind is GateKind.RY:
            self._branch(g.targets[0], _ry_matrix(g.angle))
        else:
            raise SimulationError(f"unknown gate kind {kind}")
        self._view = None

    def _admit(self, support):
        """Record a support about to be reached; raise past the cap."""
        self.peak_support = max(self.peak_support, support)
        if support > self.support_cap:
            raise SupportCapError(
                f"support {support} exceeds cap {self.support_cap}; "
                "reduce D, t, or n (or raise BLOCKENC_SUPPORT_CAP)")

    def _branch(self, q, m, controls=()):
        """Apply the 2x2 matrix ``m`` to qubit ``q`` of the entries whose
        ``controls`` pass, leaving the rest untouched: a branched entry keeps
        its controls, so it never meets an untouched one.

        The new state is the kept entries of outcome row 0 (bit ``q`` clear),
        those of row 1 (bit set), then the untouched entries.  Their number
        is checked against the cap before the new arrays are allocated; when
        it may exceed the cap, it is counted chunk by chunk first.
        """
        keys, amps = self._keys, self._amps
        branched = untouched = None
        if controls:
            hit = self._controls_pass(controls)
            hits = np.count_nonzero(hit)
            if hits == 0:
                return
            if hits < len(hit):
                branched, untouched = hit.nonzero()[0], (~hit).nonzero()[0]
                amps = amps[branched]
        w, mask = _locate(q)
        on = keys[w] if branched is None else keys[w][branched]
        on = (on & mask) != 0
        ones = np.count_nonzero(on)
        if 0 < ones < len(on):
            # Entries equal but for bit q meet: sort with the bit cleared.
            rows = [row if branched is None else row[branched]
                    for row in keys]
            rows[w] = rows[w] & ~mask
            runs = _runs(rows)
            del rows
            firsts = runs[0][runs[1]]
            size = len(firsts)
        else:
            runs, on, size = None, int(ones > 0), len(amps)
        rest = 0 if untouched is None else len(untouched)
        if 2 * size + rest > self.support_cap:
            # Count the kept entries ahead, a chunk of runs at a time.
            count = rest
            for lo in range(0, size, _CHUNK):
                part = _outcomes(m, amps, on, runs, lo, min(lo + _CHUNK, size))
                count += int(np.count_nonzero(
                    ~(np.abs(part) < PRUNE_THRESHOLD)))
            self._admit(count)
        out = _outcomes(m, amps, on, runs, 0, size)
        small = np.abs(out) < PRUNE_THRESHOLD
        if small.any():
            dropped = out[small]
            self.pruned_weight += float(np.sum(dropped.real ** 2
                                               + dropped.imag ** 2))
        kept = [row.nonzero()[0] for row in ~small]
        cut, split = len(kept[0]), len(kept[0]) + len(kept[1])
        self._admit(split + rest)
        new_keys = np.empty((len(keys), split + rest), dtype=np.uint64)
        new_amps = np.empty(split + rest, dtype=complex)
        for (lo, hi), row, index in zip(((0, cut), (cut, split)), out, kept):
            row.take(index, out=new_amps[lo:hi], mode="clip")
            if runs is not None:
                index = firsts[index]
            if branched is not None:
                index = branched[index]
            _take(keys, index, new_keys[:, lo:hi])
        new_keys[w, :cut] &= ~mask
        new_keys[w, cut:split] |= mask
        if rest:
            _take(keys, untouched, new_keys[:, split:])
            self._amps.take(untouched, out=new_amps[split:], mode="clip")
        self._keys, self._amps = new_keys, new_amps
        self._view = None

    def run(self, circuit: Circuit):
        return self._run_ops(circuit.ops)

    def register_value(self, idx, qubits):
        """Read a register value; qubits listed most-significant first."""
        value = 0
        for q in qubits:
            value = (value << 1) | ((idx >> q) & 1)
        return value


def encode_register(qubits, value) -> int:
    """Basis index with ``value`` written big-endian across ``qubits``."""
    idx = 0
    width = len(qubits)
    for i, q in enumerate(qubits):
        if (value >> (width - 1 - i)) & 1:
            idx |= 1 << q
    return idx


def check_clean(state: SparseState, qubits) -> bool:
    """True iff every stored basis state has bit 0 at all listed qubits."""
    keys = state._keys
    return all(not np.any(keys[w] & m) for w, m in _word_masks(tuple(qubits))
               if w < keys.shape[0])


def run_circuit(circuit: Circuit, initial_index=0, **kw) -> SparseState:
    state = SparseState.basis(circuit.total_qubits, initial_index, **kw)
    return state.run(circuit)


def _run_columns(ops, num_qubits, in_qubits, columns, support_cap=None):
    """Run every input |k>, k < columns, on ``in_qubits`` in one batched pass.

    Column k starts with k written in the bits above ``num_qubits``.  Returns
    the final state and those column qubits, most-significant first.
    """
    col_qubits = tuple(range(num_qubits + (columns - 1).bit_length() - 1,
                             num_qubits - 1, -1))
    start = {encode_register(in_qubits, k) | (k << num_qubits): 1.0 + 0.0j
             for k in range(columns)}
    state = SparseState(num_qubits, start, support_cap=support_cap)
    return state._run_ops(ops), col_qubits


class BlockExtract:
    """Extracted top-left block of a circuit unitary.

    ``column_leaks[k]`` is the squared weight of column k outside the
    <0|-projected block.  For a unitary acting purely on the data register
    the leaks vanish; for a genuine block-encoding they carry the expected
    orthogonal-complement weight 1 - ||column||^2.  ``peak_support`` is the
    largest support the column-batched state reached and ``pruned_weight``
    the squared amplitude dropped below the prune threshold, over all columns.
    """

    def __init__(self, block, column_leaks, column_norms, in_qubits,
                 peak_support, pruned_weight):
        self.block = block
        self.column_leaks = tuple(column_leaks)
        self.column_norms = tuple(column_norms)
        self.in_qubits = tuple(in_qubits)
        self.peak_support = peak_support
        self.pruned_weight = pruned_weight

    @property
    def unitary_witness(self):
        """Max deviation of (block weight + leak) from 1 over the columns."""
        return max(abs(norm2 + leak - 1.0) for norm2, leak
                   in zip(self.column_norms, self.column_leaks))


def extract_block(circuit: Circuit, in_qubits, dim=None,
                  support_cap=None) -> BlockExtract:
    """Run the circuit on inputs |0...0>|k> and collect <0...0,j|U|0...0,k>.

    ``in_qubits`` is the data register (most-significant qubit first) for
    both k and j; all other qubits form the <0| projector.
    """
    in_qubits = tuple(in_qubits)
    dim_in = dim if dim is not None else 1 << len(in_qubits)
    state, col_qubits = _run_columns(circuit.ops, circuit.total_qubits,
                                     in_qubits, dim_in, support_cap)
    keys, amps = state._keys, state._amps
    outside = np.zeros(len(amps), dtype=bool)
    allowed = dict(_word_masks(in_qubits + col_qubits))
    for w in range(keys.shape[0]):
        outside |= (keys[w] & ~allowed.get(w, np.uint64(0))) != 0
    col = _read(keys, col_qubits)
    weight = amps.real ** 2 + amps.imag ** 2
    leaks = np.bincount(col[outside], weight[outside], minlength=dim_in)
    inside = ~outside
    norms = np.bincount(col[inside], weight[inside], minlength=dim_in)
    block = np.zeros((1 << len(in_qubits), dim_in), dtype=complex)
    block[_read(keys[:, inside], in_qubits), col[inside]] = amps[inside]
    return BlockExtract(block, leaks.tolist(), norms.tolist(), in_qubits,
                        state.peak_support, state.pruned_weight)


def spectral_norm(matrix) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(matrix), 2))


def dense_unitary(ops, num_qubits) -> np.ndarray:
    """Dense unitary of an op list (<= 12 qubits), all columns in one pass."""
    if num_qubits > 12:
        raise ValueError("dense_unitary limited to 12 qubits")
    dim = 1 << num_qubits
    # Columns are indexed with qubit 0 as the most significant bit so that
    # matrices read in standard |q0 q1 ...> order.
    qubits = tuple(range(num_qubits))
    # The batched state never holds more entries than the dense matrix.
    state, col_qubits = _run_columns(ops, num_qubits, qubits, dim,
                                     support_cap=dim * dim)
    u = np.zeros((dim, dim), dtype=complex)
    u[_read(state._keys, qubits), _read(state._keys, col_qubits)] = state._amps
    return u
