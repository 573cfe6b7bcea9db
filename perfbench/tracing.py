"""In-memory spans around the calls the CLI makes into each blockenc layer.

Spans are recorded from the benchmark's side only: ``install`` replaces a
layer's public function in the namespace of the module that calls it (for
example ``blockenc.cli.count_resources``) with a wrapper that opens a span,
and the returned ``restore`` puts the originals back.  Nothing inside
``src/blockenc`` is changed.

A span is (id, parent id, request id, name, start, end).  A call into a layer
that is already the innermost open span is folded into that span, so the
select-swap loader called from ``build_load_ss`` is one ``qram.build`` span.
A layer's time is its self time: span durations minus the part their child
spans cover.  ``cli.self`` is the self time of the request span, which is
argument parsing, CSV reading, report building and output.  The tracer's own
gate counting runs in ``trace`` spans, so no layer's self time includes it.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

REQUEST = "cli"
OWN = "trace"


class Tracer:
    def __init__(self):
        self.spans = []         # [id, parent, request, name, start, end]
        self.counts = Counter()
        self._stack = []
        self._request = None

    @contextmanager
    def span(self, name):
        if self._stack and self.spans[self._stack[-1]][3] == name:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, self._request, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, request_id):
        self._request = request_id
        try:
            with self.span(REQUEST):
                yield
        finally:
            self._request = None

    def self_times(self, first_span=0):
        """Seconds of self time per span name, over spans from ``first_span``."""
        child = Counter()
        for sid, parent, _, _, start, end in self.spans[first_span:]:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, _, _, name, start, end in self.spans[first_span:]:
            out[name] += (end - start) - child[sid]
        return out

    def dump(self):
        return [{"id": s[0], "parent": s[1], "request": s[2], "name": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans]


def _wrap(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result
    return traced


def _counted(tracer, result):
    tracer.counts["circuit.count_calls"] += 1


def _expanded_gates(circuit):
    from blockenc.circuit import Macro
    return sum(len(op.expansion) if isinstance(op, Macro) else 1
               for op in circuit.ops)


def _built(block_encoding):
    def after(tracer, result):
        tracer.counts["circuits_built"] += 1
        if block_encoding:
            with tracer.span(OWN):
                tracer.counts["encoding.ops"] += len(result.circuit.ops)
                tracer.counts["encoding.gates_expanded"] += \
                    _expanded_gates(result.circuit)
    return after


def _text(tracer, result):
    tracer.counts["circuit.text_bytes"] += len(result.encode())


def _verdict(tracer, result):
    tracer.counts["resources.verdicts"] += 1
    tracer.counts["resources.ledger_explained"] += bool(result.ledger_refs)
    tracer.counts["resources.unexplained"] += not result.passed


def _traced_extract(tracer, fn, support_cap_error):
    @functools.wraps(fn)
    def traced(circuit, in_qubits, *args, **kwargs):
        with tracer.span(OWN):
            columns = kwargs.get("dim") or 1 << len(tuple(in_qubits))
            tracer.counts["simulator.columns"] += columns
            tracer.counts["simulator.gate_applications"] += \
                columns * _expanded_gates(circuit)
        try:
            with tracer.span("simulator.extract_block"):
                return fn(circuit, in_qubits, *args, **kwargs)
        except support_cap_error:
            tracer.counts["simulator.support_cap_errors"] += 1
            raise
    return traced


def _patch(table, module, attr, replacement):
    table.append((module, attr, getattr(module, attr)))
    setattr(module, attr, replacement)


def install(tracer):
    """Route the CLI's calls into every layer through ``tracer``.

    Returns a function that undoes the patching.
    """
    from blockenc import cli, encoding, qram, resources, simulator

    table = []

    def wrap(module, attr, name, after=None):
        _patch(table, module, attr, _wrap(tracer, getattr(module, attr), name,
                                          after))

    for attr in ("build_block_encoding", "build_controlled_block_encoding",
                 "build_symmetric_block_encoding"):
        wrap(cli, attr, "encoding.build_block_encoding", _built(True))
    wrap(resources, "build_block_encoding", "encoding.build_block_encoding",
         _built(True))
    for module in (cli, resources):
        wrap(module, "count_resources", "circuit.count_resources", _counted)
        wrap(module, "cross_validate", "resources.cross_validate", _verdict)
    wrap(cli, "write_circuit_text", "circuit.write_circuit_text", _text)
    wrap(cli, "qnorm_profile", "angle_tree.qnorm_profile")
    wrap(cli, "reproduce_headline_table", "resources.reproduce_headline_table")
    wrap(cli, "sweep_cross_validation", "resources.sweep_cross_validation")
    wrap(cli, "spectral_norm", "simulator.spectral_norm")
    _patch(table, cli, "extract_block",
           _traced_extract(tracer, cli.extract_block, simulator.SupportCapError))

    wrap(encoding, "matrix_trees", "angle_tree.matrix_trees")
    for attr in ("sp_fixed_ops", "fixed_init_ops", "fixed_rows_for_trees",
                 "sp_prerotated_ops", "csp_prerotated_ops"):
        wrap(encoding, attr, "stateprep.build")
    for attr in ("build_sp_fixed", "build_sp_prerotated"):
        wrap(resources, attr, "stateprep.build", _built(False))
    for attr in ("build_load_ss", "build_load_bb", "build_loadf"):
        wrap(resources, attr, "qram.build", _built(False))
    for cls in (qram.SelectSwapLoad, qram.BucketBrigadeLoad, qram.FlagLoad):
        wrap(cls, "build_ops", "qram.build")

    def restore():
        for module, attr, original in reversed(table):
            setattr(module, attr, original)
    return restore


def capture_blocks(sink):
    """Keep each ``BlockExtract`` the CLI's verify computes, for the checks.

    Returns a function that undoes the patching.
    """
    from blockenc import cli

    original = cli.extract_block

    @functools.wraps(original)
    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    cli.extract_block = capturing

    def restore():
        cli.extract_block = original
    return restore
