"""Command-line front end: estimate, build, verify, tables, sweep.

Exit codes: 0 success, 1 verification/cross-validation failure, 2 usage or
configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .angle_tree import qnorm_profile, scaled_frobenius
from .circuit import (
    Circuit,
    Gate,
    GateKind,
    count_resources,
    write_circuit_text,
)
from .encoding import (
    BlockEncodingConfig,
    Method,
    Variant,
    build_block_encoding,
    chosen_t,
    select_parameters,
)
# Unused here; perfbench/tracing.py wraps these names on this module.
from .encoding import (  # noqa: F401
    build_controlled_block_encoding,
    build_symmetric_block_encoding,
)
from .qram import ConfigurationError, QramModel
from .resources import (
    cross_validate,
    evaluate,
    reproduce_headline_table,
    sweep_cross_validation,
)
from .simulator import SupportCapError, extract_block, spectral_norm

USAGE_ERROR = 2
VERIFY_ERROR = 1

_QRAM = {"ss": QramModel.SELECT_SWAP, "bb": QramModel.BUCKET_BRIGADE,
         "flags": QramModel.FLAGS}
_METHOD = {"fixed": Method.FIXED_PRECISION, "prerotated": Method.PRE_ROTATED}
_VARIANT = {"standard": Variant.STANDARD, "controlled": Variant.CONTROLLED,
            "symmetric": Variant.SYMMETRIC}


class UsageError(Exception):
    pass


def _read_matrix(path):
    try:
        rows = []
        width = None
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            values = [float(x) for x in line.split(",")]
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise UsageError(f"ragged CSV row in {path}")
            rows.append(values)
        if not rows:
            raise UsageError(f"no data in {path}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read matrix from {path}: {exc}") from exc
    matrix = np.array(rows)
    if not np.isfinite(matrix).all():
        raise UsageError(f"non-finite entry (inf or nan) in {path}")
    if not math.isfinite(scaled_frobenius(matrix)[1]):
        raise UsageError(f"the Frobenius norm of the matrix in {path} "
                         "overflows a float")
    return matrix


def _parse_norm(text):
    if text == "frobenius":
        return "frobenius", None
    if text.startswith("qnorm:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad q-norm parameter in {text!r}") from None
        if not 0 <= p <= 1:
            raise UsageError("q-norm parameter must lie in [0, 1]")
        return "qnorm", p
    raise UsageError(f"unknown normalization {text!r}")


def _emit(payload, args):
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = _render_text(payload)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def _render_text(payload, indent=0):
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: {', '.join(str(v) for v in value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _config_from_args(args):
    return BlockEncodingConfig(
        method=_METHOD[args.method], qram=_QRAM.get(args.qram), lam=args.lam,
        epsilon=args.epsilon, variant=_VARIANT[args.variant], t=args.t)


def _no_formula(variant):
    return f"the paper gives no closed form for the {variant} variant"


def _formula_for(cfg, n):
    if cfg.method is Method.PRE_ROTATED:
        return "be_prerotated", {"n": n}
    name = "be_ss" if cfg.qram is QramModel.SELECT_SWAP else "be_bb"
    return name, {"n": n, "lam": cfg.lam}


def cmd_estimate(args):
    norm_kind, p = _parse_norm(args.norm)
    if args.matrix:
        matrix = _read_matrix(args.matrix)
        n = _padded_n(matrix)
        _, alpha = scaled_frobenius(matrix)
    else:
        if args.n is None or args.alpha is None:
            raise UsageError("estimate needs --matrix or both --n and --alpha")
        n = args.n
        alpha = args.alpha
    if norm_kind == "qnorm":
        if args.matrix is None:
            raise UsageError("q-norm reporting needs --matrix")
        data = qnorm_profile(matrix, p)
        _emit({
            "normalization": f"qnorm p={p}",
            "mu_p": data.mu_p,
            "frobenius": alpha,
            "chi_row": list(data.chi_row),
            "chi_col": list(data.chi_col),
            "note": ("q-norm output is a classical report; circuit "
                     "generation uses the Frobenius normalization"),
        }, args)
        return 0
    if args.variant != "standard":
        raise UsageError(_no_formula(args.variant))
    cfg = _config_from_args(args).resolve(n)
    params = select_parameters(args.epsilon, alpha, n, cfg.method)
    t = chosen_t(cfg, params)
    ry = _chosen_ry(args, params)
    name, inputs = _formula_for(cfg, n)
    if "lam" in inputs:
        inputs["t"] = t
    inputs["ry"] = ry
    report = evaluate(name, **inputs)
    _emit({
        "config": {
            "command": "estimate", "n": n, "alpha": alpha,
            "epsilon": args.epsilon, "method": cfg.method.value,
            "qram": cfg.qram.value, "lambda": cfg.lam, "t": t, "ry": ry,
            "variant": cfg.variant.value, "normalization": args.norm,
        },
        **report.to_dict(),
        "formula": {"name": name, "qubits": report.qubits,
                    "t_count": report.t_count, "t_depth": report.t_depth},
        "match": None,      # the estimate is the formula: nothing compared
        "ledger_refs": [],
    }, args)
    return 0


def _chosen_ry(args, params):
    """``--ry`` if given, else the R_y ``params`` chose, which must be >= 1."""
    if args.ry is not None:
        return args.ry
    if params.r_y < 1:
        raise UsageError(
            f"epsilon {args.epsilon:g} chooses R_y = {params.r_y} for alpha "
            f"{params.alpha:g}; ry must be >= 1: set --ry or another epsilon")
    return params.r_y


def _padded_n(matrix):
    """log2 of the side of the square power-of-two padding of ``matrix``."""
    return max((s - 1).bit_length() for s in matrix.shape)


def _require_frobenius(args):
    norm_kind, _ = _parse_norm(args.norm)
    if norm_kind == "qnorm":
        raise ConfigurationError(
            "the q-norm normalization is a classical report only; "
            f"{args.command} requires the Frobenius normalization")


def cmd_build(args):
    _require_frobenius(args)
    if args.ry is not None and args.ry < 1:
        raise UsageError("ry must be >= 1")
    matrix = _read_matrix(args.matrix)
    result = build_block_encoding(matrix, _config_from_args(args))
    ry = _chosen_ry(args, result.params)
    counted = count_resources(result.circuit, ry_cost=ry)
    name, inputs = _formula_for(result.config, result.n)
    report = {
        "config": {
            "command": "build", "matrix": args.matrix,
            "original_shape": list(result.original_shape),
            "padded_shape": list(result.padded.shape),
            "n": result.n, "alpha": result.alpha,
            "method": result.config.method.value,
            "qram": result.config.qram.value, "lambda": result.config.lam,
            "t": result.t,
            "ry": ry, "variant": args.variant,
        },
        **counted.to_dict(),
    }
    if args.variant == "standard":
        if "lam" in inputs:
            inputs["t"] = result.t
        inputs["ry"] = ry
        verdict = cross_validate(counted, name, inputs)
        report["formula"] = {"name": name, "qubits": verdict.expected[0],
                             "t_count": verdict.expected[1],
                             "t_depth": verdict.expected[2]}
        report["match"] = verdict.passed
        report["ledger_refs"] = verdict.ledger_refs
    else:
        report["formula"] = {"reason": _no_formula(args.variant)}
        report["match"] = None
        report["ledger_refs"] = []
    if args.out:
        Path(args.out).write_text(write_circuit_text(result.circuit))
        sidecar = Path(args.out).with_suffix(".report.json")
        sidecar.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"circuit written to {args.out} "
              f"({result.circuit.total_qubits} qubits, "
              f"{len(result.circuit.ops)} ops); report in {sidecar}")
    else:
        _emit(report, args)
    return 0


def cmd_verify(args):
    _require_frobenius(args)
    matrix = _read_matrix(args.matrix)
    result = build_block_encoding(matrix, _config_from_args(args))
    if result.n > 3:
        raise UsageError("verify is desk-scale only: padded n must be <= 3")
    circuit = result.circuit
    if result.control_qubits:
        # The controlled variant encodes A/alpha with its controls at |1>.
        flips = tuple(Gate(GateKind.X, (q,)) for q in result.control_qubits)
        circuit = Circuit(circuit.registers, flips + circuit.ops + flips,
                          circuit.total_qubits)
    try:
        ext = extract_block(circuit, result.in_qubits)
    except SupportCapError as exc:
        raise UsageError(str(exc)) from exc
    if args.variant == "symmetric":
        m_pad, n_pad = result.padded.shape
        target = np.zeros((1 << result.n, 1 << result.n))
        target[:m_pad, m_pad:m_pad + n_pad] = result.padded
        target[m_pad:m_pad + n_pad, :m_pad] = result.padded.T
    else:
        target = result.padded
    dim = target.shape[0]
    error = spectral_norm(target - result.alpha * ext.block[:dim, :dim])
    floor = 1e-9 * result.alpha
    if result.config.method is Method.PRE_ROTATED:
        bound, bound_kind = floor, "exact method: 1e-9 * alpha"
    else:
        bound = math.pi * result.n * 2.0 ** (-result.t) * result.alpha
        bound_kind = "rounding: pi * log2(N) * 2^-t * alpha"
        if bound < floor:
            # The simulator's own rounding error grows with alpha.
            bound, bound_kind = floor, "simulation floor: 1e-9 * alpha"
    unitary = ext.unitary_witness
    passed = error <= bound and unitary < 1e-9
    payload = {
        "config": {
            "command": "verify", "matrix": args.matrix,
            "method": result.config.method.value,
            "qram": result.config.qram.value,
            "lambda": result.config.lam, "variant": args.variant,
            "alpha": result.alpha,
        },
        "error": error,
        "bound": bound,
        "bound_kind": bound_kind,
        "unitarity_witness": unitary,
        "column_leak_weights": [round(leak, 12) for leak in ext.column_leaks],
        "peak_support": ext.peak_support,
        "pruned_weight": ext.pruned_weight,
        "passed": bool(passed),
    }
    _emit(payload, args)
    return 0 if passed else VERIFY_ERROR


def cmd_tables(args):
    rows = reproduce_headline_table(args.epsilon)
    header = (f"{'column':>10} {'N':>5} {'metric':>8} {'computed':>14} "
              f"{'rounded':>9} {'published':>10} {'match':>6}")
    lines = [header, "-" * len(header)]
    all_ok = True
    for row in rows:
        all_ok &= row["match"]
        lines.append(
            f"{row['column']:>10} {row['N']:>5} {row['metric']:>8} "
            f"{row['value']:>14} {row['rounded']:>9.0e} "
            f"{row['published']:>10.0e} {str(row['match']):>6}")
    text = "\n".join(lines)
    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    print(f"table reproduction: {'all 18 match' if all_ok else 'MISMATCH'}")
    return 0 if all_ok else VERIFY_ERROR


def cmd_sweep(args):
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1: a sweep up to "
                         f"n = {args.n_max} compares nothing")
    n_values = tuple(range(1, args.n_max + 1))
    verdicts = sweep_cross_validation(n_values=n_values, seed=args.seed)
    bad = [v for v in verdicts if not v.passed]
    payload = {
        "config": {"command": "sweep", "n_max": args.n_max, "seed": args.seed},
        "verdicts": len(verdicts),
        "unexplained": len(bad),
        "ledger_explained": sum(1 for v in verdicts if v.ledger_refs),
        "failures": [
            {"formula": v.formula, "point": v.point, "diffs": v.diffs}
            for v in bad[:50]
        ],
    }
    _emit(payload, args)
    return 0 if not bad else VERIFY_ERROR


def make_parser():
    parser = argparse.ArgumentParser(
        prog="blockenc", allow_abbrev=False,
        description="Clifford+T block-encoding compiler and resource estimator")
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, allow_abbrev=False)

    def common(p, matrix_required=False):
        p.add_argument("--matrix", required=matrix_required,
                       help="CSV matrix path (row-major, no header)")
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--method", choices=sorted(_METHOD), default="fixed")
        p.add_argument("--qram", choices=sorted(_QRAM), default=None)
        p.add_argument("--variant", choices=sorted(_VARIANT),
                       default="standard")
        p.add_argument("--norm", default="frobenius",
                       help="frobenius or qnorm:P with P in [0,1]")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("estimate", help="closed-form resource estimate")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--ry", type=int, default=None)
    p.set_defaults(func=cmd_estimate)

    p = command("build", help="compile a circuit and report resources")
    common(p, matrix_required=True)
    p.add_argument("--ry", type=int, default=None)
    p.set_defaults(func=cmd_build)

    p = command("verify", help="simulate and check the block (n <= 3)")
    common(p, matrix_required=True)
    p.set_defaults(func=cmd_verify)

    p = command("tables", help="reproduce the published headline resource table")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_tables)

    p = command("sweep", help="formula-vs-counted cross-validation")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
