"""Closed-form resource formulas, the headline table reproduction, and the
formula-vs-counted cross-validator.

The counted circuit is authoritative: formulas are the specification under
test.  Known constant slips in the published formulas are recorded in the
discrepancy ledger with dual citations; the cross-validator accepts a
mismatch only when a ledger entry predicts it exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import ResourceReport, count_resources, count_resources_at
from .decomp import ParameterError
from .encoding import (
    BlockEncodingConfig,
    Method,
    build_block_encoding,
    select_parameters,
)
from .qram import LoadSpec, QramModel, build_load_bb, build_load_ss, build_loadf
from .stateprep import build_sp_fixed, build_sp_prerotated


def _report(qubits, t_depth, t_count):
    return ResourceReport(qubits=int(qubits), t_count=int(t_count),
                          t_depth=int(t_depth))


def f_load_ss(n, d, lam):
    return _report(
        d * 2 ** lam + 2 * n - lam - 1,
        4 * 2 ** (n - lam) + 4 * lam - 4,
        4 * d * 2 ** lam + 4 * 2 ** (n - lam) - 4 * d - 4,
    )


def f_load_bb(n, d, lam):
    return _report(
        (2 * d + 1) * 2 ** lam + 2 * n - 2,
        (48 * lam - 36) * 2 ** (n - lam) - 4,
        16 * (d + 1) * 2 ** n - (8 * d + 8 * lam + 12) * 2 ** (n - lam) - 4,
    )


def f_loadf(n, d, ry):
    return _report(
        4 * d * 2 ** n + n + d,
        2 * n + 2 * ry + 2,
        (2 * ry + 20) * d * 2 ** n - 12 * d,
    )


def f_sp_fixed(n, t, ry):
    return _report(
        (t + 1) * 2 ** n + n - t,
        2 * t * n * ry + 8 * n,
        8 * (t + 1) * (2 ** n - 1) + 2 * t * n * ry - 8 * t * n,
    )


def f_sp_prerotated(n, ry):
    return _report(
        4 * 2 ** n + n - 6,
        3 * n + 4 * ry - 3,
        (4 * ry + 16) * 2 ** n - 4 * ry - 16 * n - 16,
    )


def f_be_ss(n, t, lam, ry):
    return _report(
        (t + 1) * 2 ** (n + lam) - t * 2 ** lam + 3 * n - lam + 1,
        8 * 2 ** (n - lam) + 4 * t * n * ry + 16 * n + 8 * lam - 8,
        8 * (t + 1) * (2 ** (n + lam) + 2 ** n) - 8 * t * 2 ** lam
        + 8 * 2 ** (n - lam) + 4 * t * n * ry - 16 * t * n - 8 * t - 24,
    )


def f_be_bb(n, t, lam, ry):
    return _report(
        (2 * t + 2) * 2 ** (n + lam) - (2 * t - 1) * 2 ** lam + 3 * n - 2,
        (96 * lam - 72) * 2 ** (n - lam) + 4 * t * n * ry + 16 * n - 8,
        32 * (t + 1) * 2 ** (2 * n) - 16 * (t + 1) * 2 ** (2 * n - lam)
        + 2 ** (n - lam) * (-16 * lam + 16 * t - 24)
        - (16 * t - 48) * 2 ** n + 4 * t * n * ry - 16 * t * n - 16 * t - 24,
    )


def f_be_prerotated(n, ry):
    return _report(
        4 * 2 ** (2 * n) - 3 * 2 ** n + 2 * n - 1,
        10 * n + 8 * ry - 4,
        (4 * ry + 32) * 2 ** (2 * n) - 24 * 2 ** n - 4 * ry - 32 * n - 8,
    )


def f_be_min_count(n, t, ry):
    big_n = 2 ** n
    return _report(
        big_n * (t + 1) + 3 * n - t + 1,
        8 * big_n + 16 * n + 4 * ry * n * t - 8,
        8 * (2 * t + 3) * big_n - 16 * t * (n + 1) + 4 * ry * n * t - 24,
    )


FORMULAS = {
    "load_ss": (f_load_ss, ("n", "d", "lam")),
    "load_bb": (f_load_bb, ("n", "d", "lam")),
    "loadf": (f_loadf, ("n", "d", "ry")),
    "sp_fixed": (f_sp_fixed, ("n", "t", "ry")),
    "sp_prerotated": (f_sp_prerotated, ("n", "ry")),
    "be_ss": (f_be_ss, ("n", "t", "lam", "ry")),
    "be_bb": (f_be_bb, ("n", "t", "lam", "ry")),
    "be_prerotated": (f_be_prerotated, ("n", "ry")),
    "be_min_depth": (f_be_prerotated, ("n", "ry")),
    "be_min_count": (f_be_min_count, ("n", "t", "ry")),
}


def evaluate(name, **inputs) -> ResourceReport:
    """Exact integer evaluation of one closed-form formula set."""
    try:
        fn, argnames = FORMULAS[name]
    except KeyError:
        raise ParameterError(f"unknown formula set {name!r}") from None
    missing = [a for a in argnames if a not in inputs]
    if missing:
        raise ParameterError(f"{name} needs inputs {missing}")
    for key in ("n", "d", "t", "ry"):
        if key in inputs and key in argnames and inputs[key] < 1:
            raise ParameterError(f"{key} must be >= 1")
    if "lam" in argnames and not 0 <= inputs["lam"] <= inputs["n"]:
        raise ParameterError("lambda must lie in [0, n]")
    return fn(**{a: inputs[a] for a in argnames})


# ---------------------------------------------------------------------------
# Headline table reproduction
# ---------------------------------------------------------------------------

# Published one-significant-figure costs for the uniform-[5,105] entry model
# at epsilon = 0.01 and N in (16, 256, 4096).
HEADLINE_PUBLISHED = {
    "min_depth": {
        "qubits": (1e3, 3e5, 7e7),
        "t_depth": (5e2, 7e2, 8e2),
        "t_count": (7e4, 2e7, 7e9),
    },
    "min_count": {
        "qubits": (4e2, 7e3, 1e5),
        "t_depth": (2e4, 7e4, 2e5),
        "t_count": (3e4, 2e5, 2e6),
    },
}

HEADLINE_SIZES = (16, 256, 4096)


def round_to_sigfig(x):
    """Round to one significant figure (983 -> 1e3)."""
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    lead = round(abs(x) / 10 ** exp)
    if lead == 10:
        lead, exp = 1, exp + 1
    return math.copysign(lead * 10 ** exp, x)


def uniform_entry_alpha(big_n, lo=5.0, hi=105.0):
    """Frobenius norm of an N x N matrix of uniform [lo, hi] entries,
    using the exact second moment of the distribution."""
    second_moment = (hi ** 3 - lo ** 3) / (3 * (hi - lo))
    return big_n * math.sqrt(second_moment)


def reproduce_headline_table(epsilon=0.01):
    """Evaluate both headline columns and compare at one significant figure."""
    rows = []
    for col, idx in (("min_depth", 0), ("min_count", 1)):
        for i, big_n in enumerate(HEADLINE_SIZES):
            n = big_n.bit_length() - 1
            alpha = uniform_entry_alpha(big_n)
            if col == "min_depth":
                params = select_parameters(epsilon, alpha, n, Method.PRE_ROTATED)
                rep = evaluate("be_min_depth", n=n, ry=params.r_y)
            else:
                params = select_parameters(epsilon, alpha, n,
                                           Method.FIXED_PRECISION)
                rep = evaluate("be_min_count", n=n, t=params.t, ry=params.r_y)
            for metric, value in (("qubits", rep.qubits),
                                  ("t_depth", rep.t_depth),
                                  ("t_count", rep.t_count)):
                published = HEADLINE_PUBLISHED[col][metric][i]
                rows.append({
                    "column": col,
                    "N": big_n,
                    "metric": metric,
                    "alpha": alpha,
                    "t": params.t,
                    "r_y": params.r_y,
                    "value": value,
                    "rounded": round_to_sigfig(value),
                    "published": published,
                    "match": round_to_sigfig(value) == published,
                })
    return rows


# ---------------------------------------------------------------------------
# Discrepancy ledger and cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerEntry:
    """One explained formula discrepancy.

    ``offset(point)`` gives counted - formula on the subgrid where
    ``applies(point)`` holds; ``citations`` carries the two conflicting
    source locations.
    """

    formula: str
    metric: str
    subgrid: str
    offset_rule: str
    citations: tuple
    applies: object
    offset: object


def _load_bb_depth_delta(p):
    n, lam = p["n"], p["lam"]
    if lam == 0:
        return 44 * 2 ** n + 4
    if lam == 1:
        return 12 * 2 ** (n - 1) + 4
    return (4 - 8 * lam) * 2 ** (n - lam) + 4


# Known, explained discrepancies between formulas and counted circuits.
LEDGER = (
    LedgerEntry(
        "load_ss", "qubits", "lam = n",
        "+1 (the published 's-1' unary-iteration ancilla term is -1 when "
        "the select register is empty)",
        ("published select-swap loader qubit formula D*2^lam + 2n - lam - 1",
         "published loader-diagram caption charging s-1 select ancillas"),
        lambda p: p["lam"] == p["n"],
        lambda p: 1,
    ),
    LedgerEntry(
        "load_bb", "qubits", "lam = n",
        "+1 (same 's-1' term at s = 0)",
        ("published bucket-brigade loader qubit formula (2D+1)*2^lam + 2n - 2",
         "published loader-diagram caption charging s-1 select ancillas"),
        lambda p: p["lam"] == p["n"],
        lambda p: 1,
    ),
    LedgerEntry(
        "load_bb", "qubits", "lam = 0",
        "+1 (the published per-tree ancilla count q_lam = "
        "(2^lam-1)(2D+1)-1 is -1 for an empty tree)",
        ("published bucket-brigade loader qubit formula",
         "published per-tree ancilla count q_lam = (2^lam-1)(2D+1)-1"),
        lambda p: p["lam"] == 0,
        lambda p: 1,
    ),
    LedgerEntry(
        "load_bb", "t_depth", "lam = 0",
        "+44*2^n + 4 (the published term (48*lam-36)*2^(n-lam) is "
        "negative at lam = 0; the built circuit costs one swap-in/out "
        "pair of depth-4 layers per iteration, with the unary-iteration "
        "steps scheduled under them)",
        ("published bucket-brigade T-depth (48*lam-36)*2^(n-lam) - 4",
         "published six-swap-layers-per-extra-address-qubit pipeline "
         "model, whose base case covers no tree at all"),
        lambda p: p["lam"] == 0,
        _load_bb_depth_delta,
    ),
    LedgerEntry(
        "load_bb", "t_depth", "lam = 1",
        "+12*2^(n-1) + 4 (the published pipeline assigns zero depth to "
        "the single-level tree, but the bus descent and return cost two "
        "depth-4 swap layers each way)",
        ("published bucket-brigade T-depth (48*lam-36)*2^(n-lam) - 4",
         "published pipeline model plus the depth-4 controlled-swap "
         "construction"),
        lambda p: p["lam"] == 1,
        _load_bb_depth_delta,
    ),
    LedgerEntry(
        "load_bb", "t_depth", "lam >= 2",
        "(4-8*lam)*2^(n-lam) + 4 (the dependency DAG of the emitted "
        "circuit routes each iteration in 10*(lam-1) depth-4 swap "
        "columns against the published 12*(lam-1): adjacent polarity "
        "columns and the forward/reverse boundary overlap, and the "
        "unary-iteration steps hide under swap layers)",
        ("published bucket-brigade T-depth (48*lam-36)*2^(n-lam) - 4",
         "published six-swap-per-qubit pipeline (a serial-stage schedule)"),
        lambda p: p["lam"] >= 2,
        _load_bb_depth_delta,
    ),
    LedgerEntry(
        "be_ss", "qubits", "all lambda",
        "-2 (the published block-encoding qubit column exceeds the sum of "
        "its loader and state-preparation parts by two qubits)",
        ("published select-swap block-encoding qubit formula",
         "published loader qubits + state-preparation qubits + n data "
         "+ n control"),
        lambda p: True,
        lambda p: -2 + (1 if p["lam"] == p["n"] else 0),
    ),
    LedgerEntry(
        "be_bb", "qubits", "lam in {0, n}",
        "+1 (inherited from the LOAD_bb ancilla-term slips)",
        ("published bucket-brigade block-encoding qubit formula",
         "published loader-diagram ancilla accounting"),
        lambda p: p["lam"] in (0, p["n"]),
        lambda p: 1,
    ),
    LedgerEntry(
        "sp_fixed", "t_depth", "all n, t",
        "-2n (the operand-side half of each S_p swap column precedes its "
        "control interaction and runs under the preceding rotation "
        "ladder, saving 2 of the 4 T-layers per step; the published "
        "2tnR_y + 8n sums the stages serially)",
        ("published fixed-precision state-preparation T-depth 2tnR_y + 8n",
         "published register-swap construction whose G and CNOT layers "
         "act across all pairs in parallel"),
        lambda p: True,
        lambda p: -2 * p["n"],
    ),
    LedgerEntry(
        "sp_prerotated", "t_depth", "n >= 2",
        "-min(n-1, R_y) (each controlled repair rotation releases its flag "
        "control halfway through, so FLAG-dagger overlaps the trailing "
        "half-rotations)",
        ("published pre-rotated state-preparation T-depth 3n + 4R_y - 3",
         "published controlled-rotation decomposition flip, R_y(-h), "
         "flip, R_y(h): the final half-rotation no longer involves the "
         "control"),
        lambda p: p["n"] >= 2,
        lambda p: -min(p["n"] - 1, p["ry"]),
    ),
    LedgerEntry(
        "be_ss", "t_depth", "all lambda",
        "-4n (two fixed-precision state-preparation legs, each 2n "
        "shallower than the published stage-serial sum; see the "
        "sp_fixed entry)",
        ("published select-swap block-encoding T-depth",
         "published state-preparation T-depth (stage-serial sum)"),
        lambda p: True,
        lambda p: -4 * p["n"],
    ),
    LedgerEntry(
        "be_bb", "t_depth", "all lambda",
        "two LOAD_bb legs (each off by the load_bb T-depth rule for its "
        "lambda class) plus two state-preparation legs at -2n each",
        ("published bucket-brigade block-encoding T-depth",
         "published loader T-depth and its pipeline model"),
        lambda p: True,
        lambda p: 2 * _load_bb_depth_delta(p) - 4 * p["n"],
    ),
    LedgerEntry(
        "be_prerotated", "t_depth", "all n",
        "-min(3n-2, R_y) (the pre-rotated legs overlap FLAG-dagger with the "
        "controlled repair rotations, and the mirrored leg overlaps its "
        "flag work with the LOADF rotation layers)",
        ("published pre-rotated block-encoding T-depth 10n + 8R_y - 4",
         "published stage schedule vs the controlled-rotation structure "
         "releasing its controls mid-fragment"),
        lambda p: p["n"] >= 1,
        lambda p: -min(3 * p["n"] - 2, p["ry"]),
    ),
)


@dataclass
class Verdict:
    formula: str
    point: dict
    counted: tuple
    expected: tuple
    passed: bool
    diffs: dict = field(default_factory=dict)
    ledger_refs: list = field(default_factory=list)


def cross_validate(counted: ResourceReport, formula: str,
                   inputs: dict) -> Verdict:
    """Pass iff counted == formula exactly or a ledger entry explains it."""
    expected = evaluate(formula, **inputs)
    refs = []
    diffs = {}
    passed = True
    for metric in ("qubits", "t_count", "t_depth"):
        have = getattr(counted, metric)
        want = getattr(expected, metric)
        if have == want:
            continue
        explained = False
        for entry in LEDGER:
            if entry.formula == formula and entry.metric == metric \
                    and entry.applies(inputs) \
                    and want + entry.offset(inputs) == have:
                refs.append(f"{entry.formula}.{entry.metric} [{entry.subgrid}] "
                            f"{entry.offset_rule}")
                explained = True
                break
        if not explained:
            passed = False
            diffs[metric] = {"counted": have, "formula": want,
                             "delta": have - want}
    return Verdict(formula, dict(inputs), counted.as_tuple(),
                   expected.as_tuple(), passed, diffs, refs)


def _random_rows(rng, count, width):
    return np.array([rng.integers(0, 2, width) for _ in range(count)])


def sweep_cross_validation(n_values=(1, 2, 3, 4), d_values=(1, 2, 3),
                           t_values=(3, 5, 8), ry_values=(10, 30),
                           seed=11):
    """Cross-validate every generator against its formula over the grid."""
    n_values, d_values, t_values, ry_values = (
        tuple(v) for v in (n_values, d_values, t_values, ry_values))
    rng = np.random.default_rng(seed)
    verdicts = []

    def per_ry(circuit):
        """(R_y value, report) pairs from one count of ``circuit``."""
        return zip(ry_values, count_resources_at(circuit, ry_values))

    for n in n_values:
        for lam in range(n + 1):
            for d in d_values:
                rows = _random_rows(rng, 1 << n, d)
                spec = LoadSpec(n=n, data_width=d, lam=lam,
                                model=QramModel.SELECT_SWAP, rows=rows)
                counted = count_resources(build_load_ss(spec))
                verdicts.append(cross_validate(
                    counted, "load_ss", {"n": n, "d": d, "lam": lam}))
                spec = LoadSpec(n=n, data_width=d, lam=lam,
                                model=QramModel.BUCKET_BRIGADE, rows=rows)
                counted = count_resources(build_load_bb(spec))
                verdicts.append(cross_validate(
                    counted, "load_bb", {"n": n, "d": d, "lam": lam}))

    for n in n_values:
        for d in d_values:
            thetas = [tuple(rng.uniform(0, math.pi, d)) for _ in range(1 << n)]
            circuit = build_loadf(thetas)
            for ry, counted in per_ry(circuit):
                verdicts.append(cross_validate(
                    counted, "loadf", {"n": n, "d": d, "ry": ry}))

    for n in n_values:
        vector = rng.standard_normal(1 << n)
        for t in t_values:
            circuit = build_sp_fixed(vector, t)
            for ry, counted in per_ry(circuit):
                verdicts.append(cross_validate(
                    counted, "sp_fixed", {"n": n, "t": t, "ry": ry}))
        circuit = build_sp_prerotated(vector)
        for ry, counted in per_ry(circuit):
            verdicts.append(cross_validate(
                counted, "sp_prerotated", {"n": n, "ry": ry}))

    for n in n_values:
        matrix = rng.standard_normal((1 << n, 1 << n))
        for t in t_values:
            for lam in range(n + 1):
                for qram, formula in ((QramModel.SELECT_SWAP, "be_ss"),
                                      (QramModel.BUCKET_BRIGADE, "be_bb")):
                    cfg = BlockEncodingConfig(
                        method=Method.FIXED_PRECISION, qram=qram,
                        lam=lam, t=t)
                    circuit = build_block_encoding(matrix, cfg).circuit
                    for ry, counted in per_ry(circuit):
                        verdicts.append(cross_validate(
                            counted, formula,
                            {"n": n, "t": t, "lam": lam, "ry": ry}))
        circuit = build_block_encoding(
            matrix, BlockEncodingConfig(method=Method.PRE_ROTATED)).circuit
        for ry, counted in per_ry(circuit):
            verdicts.append(cross_validate(
                counted, "be_prerotated", {"n": n, "ry": ry}))
    return verdicts
