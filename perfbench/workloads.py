"""Seeded inputs, the request mix of each workload, and the output checks.

Importing this module imports numpy and blockenc; the harness times that
import as part of set-up.  Every input matrix is drawn from the paper's entry
model, uniform on [5, 105], with a generator seeded from ``--seed``.

Each check compares a request's output with a reference that does not come
from the code under test: counts pinned in ``pins.json``, norms recomputed
with plain numpy, and the verdict totals of the formula sweep.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blockenc.circuit import ResourceReport, count_resources
from blockenc.resources import cross_validate

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())
CHECKED_REL = 1e-9
LO, HI = 5.0, 105.0


class Mismatch(Exception):
    """A request's output differs from its reference."""


@dataclass
class Request:
    name: str
    argv: list
    check: object                 # check(outcome) raises Mismatch
    parse: Path | None = None     # compile: the written circuit is re-parsed
    defect: str | None = None     # key into PINS["known_defects"]


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None
    circuit: object = None
    blocks: list = field(default_factory=list)


def classify(request, outcome):
    """Return ("ok" | "defect" | "failed", reason).

    Output a check cannot read (a missing key, a missing file) fails the
    request like output that differs from its reference.
    """
    try:
        _expect(outcome.error is None, f"raised {outcome.error}")
        request.check(outcome)
        return "ok", None
    except (Mismatch, KeyError, IndexError, TypeError, ValueError,
            OSError) as exc:
        defect = PINS["known_defects"].get(request.defect)
        if defect and outcome.error is None \
                and outcome.code == defect["exit_code"] \
                and defect["stderr_contains"] in outcome.stderr:
            return "defect", defect["reason"]
        return "failed", f"{request.name}: {exc!r}"


def _expect(cond, message):
    if not cond:
        raise Mismatch(message)


def _json_out(outcome, trailing_lines=0):
    _expect(outcome.code == 0, f"exit code {outcome.code}: "
            f"{outcome.stderr.strip()[-300:]}")
    lines = outcome.stdout.rstrip("\n").split("\n")
    if trailing_lines:
        lines = lines[:-trailing_lines]
    try:
        return json.loads("\n".join(lines))
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


def _close(a, b, rel=CHECKED_REL, abs_tol=0.0):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def uniform(rng, side):
    return rng.uniform(LO, HI, (side, side))


def write_csv(path, matrix):
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")


class Workload:
    """A seeded request mix; subclasses write their inputs in __init__."""

    qnorm_csv = None    # input of the q-norm requests, if the mix has any

    def requests(self, index):
        """The requests of pass ``index``."""
        raise NotImplementedError

    def closing_requests(self):
        """Requests a traced run makes once, after its passes."""
        return []

    def pin_problems(self):
        """Inconsistencies in the reference data itself."""
        return []

    def trace_problems(self, counts, closing=False):
        """Mismatches between a traced pass's counters and the references;
        ``closing`` marks the pass of the closing requests."""
        return []


# --------------------------------------------------------------------------
# compile: build --out, then parse the written circuit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CompileConfig:
    name: str
    n: int
    args: tuple
    formula: str | None = None    # published formula set, if the paper has one
    lam: int = 0

    def formula_inputs(self):
        t, ry = PINS["compile_t"], PINS["compile_ry"]
        if self.formula == "be_prerotated":
            return {"n": self.n, "ry": ry}
        return {"n": self.n, "t": t, "lam": self.lam, "ry": ry}


def _fixed(qram, lam):
    return ("--method", "fixed", "--qram", qram, "--lambda", str(lam))


COMPILE = {
    "full": (
        CompileConfig("ss-l0-n7", 7, _fixed("ss", 0), "be_ss", 0),
        CompileConfig("ss-l2-n6", 6, _fixed("ss", 2), "be_ss", 2),
        CompileConfig("bb-l2-n4", 4, _fixed("bb", 2), "be_bb", 2),
        CompileConfig("prerotated-n6", 6, ("--method", "prerotated"),
                      "be_prerotated"),
        CompileConfig("controlled-n4", 4, ("--variant", "controlled")),
        CompileConfig("symmetric-16x16", 4, ("--variant", "symmetric")),
    ),
    "tiny": (
        CompileConfig("ss-l0-n2", 2, _fixed("ss", 0), "be_ss", 0),
        CompileConfig("bb-l1-n2", 2, _fixed("bb", 1), "be_bb", 1),
        CompileConfig("prerotated-n2", 2, ("--method", "prerotated"),
                      "be_prerotated"),
        CompileConfig("controlled-n1", 1, ("--variant", "controlled")),
        CompileConfig("symmetric-2x2", 1, ("--variant", "symmetric")),
    ),
}

# Counts depend only on shape and configuration, so every one of these
# matrices must give the pinned counts.
MATRIX_VARIANTS = ("seed", "second_seed", "zero_row", "sign_flipped")


def _compile_check(cfg, pin, out_path):
    ry = PINS["compile_ry"]

    def check(outcome):
        _expect(outcome.code == 0, f"exit code {outcome.code}: "
                f"{outcome.stderr.strip()[-300:]}")
        report = json.loads(out_path.with_suffix(".report.json").read_text())
        built = (report["qubits"], report["t_count"], report["t_depth"])
        _expect(list(built) == list(pin),
                f"counts {built} differ from pinned {tuple(pin)}")
        if cfg.formula is not None:
            _expect(report["match"] is True, "formula cross-check failed")
        reparsed = count_resources(outcome.circuit, ry_cost=ry).as_tuple()
        _expect(reparsed == built,
                f"re-parsed circuit counts {reparsed}, built {built}")
    return check


class CompileWorkload(Workload):
    """A few large circuits, each counted once, written and re-parsed.

    Pass p builds configuration c on matrix variant (seed + p + c) mod 4, so
    every pass holds one matrix of each variant and consecutive passes (and
    seeds) rotate through all of them.
    """

    def __init__(self, seed, workdir, size, pins):
        self.seed = seed
        self.configs = COMPILE[size]
        self.pins = pins
        self.t, self.ry = PINS["compile_t"], PINS["compile_ry"]
        rng = np.random.default_rng(seed)
        self.paths = {}
        for cfg in self.configs:
            side = 1 << cfg.n
            base = uniform(rng, side)
            zero_row = base.copy()
            zero_row[side // 2] = 0.0
            mats = {
                "seed": base,
                "second_seed": uniform(np.random.default_rng((seed, 1)), side),
                "zero_row": zero_row,
                "sign_flipped": base * rng.choice((-1.0, 1.0), base.shape),
            }
            for variant, mat in mats.items():
                path = workdir / f"{cfg.name}-{variant}.csv"
                write_csv(path, mat)
                self.paths[cfg.name, variant] = path
        self.out_dir = workdir

    def pin_problems(self):
        """Cross-validate each standard-variant pin against formula + ledger."""
        problems = []
        for cfg in self.configs:
            pin = self.pins.get(cfg.name)
            if pin is None:
                problems.append(f"{cfg.name}: no pinned counts")
            elif cfg.formula is None:
                if cfg.name not in PINS["no_formula"]:
                    problems.append(f"{cfg.name}: no formula and no recorded "
                                    "reason")
            else:
                qubits, t_count, t_depth = pin
                verdict = cross_validate(
                    ResourceReport(qubits=qubits, t_count=t_count,
                                   t_depth=t_depth),
                    cfg.formula, cfg.formula_inputs())
                if not verdict.passed:
                    problems.append(f"{cfg.name}: pin fails {cfg.formula}: "
                                    f"{verdict.diffs}")
        return problems

    def requests(self, index):
        reqs = []
        for c, cfg in enumerate(self.configs):
            variant = MATRIX_VARIANTS[(self.seed + index + c) % 4]
            out = self.out_dir / f"{cfg.name}.txt"
            argv = ["build", "--matrix", str(self.paths[cfg.name, variant]),
                    *cfg.args, "--t", str(self.t), "--ry", str(self.ry),
                    "--out", str(out)]
            reqs.append(Request(f"compile/{cfg.name}/{variant}", argv,
                                _compile_check(cfg, self.pins.get(cfg.name),
                                               out), parse=out))
        return reqs


# --------------------------------------------------------------------------
# sweep: the formula-vs-counted grid
# --------------------------------------------------------------------------

def _sweep_check(expected):
    def check(outcome):
        out = _json_out(outcome)
        got = {k: out[k] for k in expected}
        _expect(got == expected, f"verdict totals {got}, expected {expected}")
        _expect(out["failures"] == [], "sweep lists failures")
    return check


class SweepWorkload(Workload):
    """Each pass sweeps the grid up to n = 3 (210 verdicts, a few seconds, so
    a run holds several passes); a traced run closes with the full n <= 4
    grid (316 verdicts), which alone takes about 15 s."""

    N_MAX = {"full": (3, 4), "tiny": (1, 2)}    # (each pass, closing)

    def __init__(self, seed, workdir, size, pins):
        self.seed = seed
        self.n_max, self.closing_n_max = self.N_MAX[size]

    def _request(self, n_max):
        argv = ["sweep", "--n-max", str(n_max), "--seed", str(self.seed),
                "--format", "json"]
        return Request(f"sweep/n-max-{n_max}", argv,
                       _sweep_check(PINS["sweep"][str(n_max)]))

    def requests(self, index):
        return [self._request(self.n_max)]

    def closing_requests(self):
        return [self._request(self.closing_n_max)]

    def trace_problems(self, counts, closing=False):
        expected = PINS["sweep"][str(self.closing_n_max if closing
                                     else self.n_max)]
        got = {k: counts[f"resources.{k}"] for k in expected}
        if got != expected:
            return [f"traced sweep verdict totals {got}, expected {expected}"]
        return []


# --------------------------------------------------------------------------
# verify: simulate desk-scale circuits and compare the block
# --------------------------------------------------------------------------

VERIFY_T = 10

# (name, side, extra args, known defect)
VERIFY = {
    "full": (
        ("ss-l0-n3", 8, ("--lambda", "0", "--t", str(VERIFY_T)), None),
        ("ss-l1-n3", 8, ("--lambda", "1", "--t", str(VERIFY_T)), None),
        ("prerotated-n2", 4, ("--method", "prerotated"), None),
        ("prerotated-n3", 8, ("--method", "prerotated"), None),
        ("symmetric-4x4", 4, ("--variant", "symmetric", "--t", str(VERIFY_T)),
         None),
        ("controlled-4x4", 4, ("--variant", "controlled", "--t", str(VERIFY_T)),
         "controlled_identity"),
        ("bb-l1-n1", 2, ("--qram", "bb", "--lambda", "1", "--t", "3"), None),
        ("bb-l1-n2", 4, ("--qram", "bb", "--lambda", "1", "--t", "3"),
         "bb_support_cap"),
    ),
    "tiny": (
        ("ss-l0-n1", 2, ("--lambda", "0", "--t", str(VERIFY_T)), None),
        ("prerotated-n1", 2, ("--method", "prerotated"), None),
        ("symmetric-2x2", 2, ("--variant", "symmetric", "--t", str(VERIFY_T)),
         None),
        ("controlled-2x2", 2, ("--variant", "controlled", "--t", str(VERIFY_T)),
         "controlled_identity"),
    ),
}


def _verify_reference(matrix, args):
    """Target, alpha and error bound, computed from the input alone."""
    side = matrix.shape[0]
    alpha = float(np.linalg.norm(matrix))
    if "symmetric" in args:
        target = np.zeros((2 * side, 2 * side))
        target[:side, side:] = matrix
        target[side:, :side] = matrix.T
    else:
        target = matrix
    n = target.shape[0].bit_length() - 1
    if "prerotated" in args:
        bound = 1e-9 * alpha
    else:
        t = int(args[args.index("--t") + 1])
        bound = math.pi * n * 2.0 ** (-t) * alpha
    return target, alpha, bound


def _verify_check(matrix, args):
    target, alpha, bound = _verify_reference(matrix, args)
    dim = target.shape[0]

    def check(outcome):
        out = _json_out(outcome)
        _expect(len(outcome.blocks) == 1, "no simulated block captured")
        block = outcome.blocks[0].block[:dim, :dim]
        error = float(np.linalg.norm(target - alpha * block, 2))
        reported_alpha = out["config"]["alpha"]
        _expect(_close(reported_alpha, alpha),
                f"alpha {reported_alpha} != {alpha}")
        _expect(_close(out["bound"], bound), f"bound {out['bound']} != {bound}")
        # The package's power iteration reports 0 below about 1e-5.
        _expect(_close(out["error"], error, 1e-6, 1e-5),
                f"reported error {out['error']}, recomputed {error}")
        _expect(error <= bound, f"error {error} exceeds bound {bound}")
        _expect(out["passed"] is True, "verify reports passed: false")
    return check


class VerifyWorkload(Workload):
    def __init__(self, seed, workdir, size, pins):
        rng = np.random.default_rng(seed)
        self.reqs = []
        for name, side, args, defect in VERIFY[size]:
            matrix = uniform(rng, side)
            path = workdir / f"verify-{name}.csv"
            write_csv(path, matrix)
            argv = ["verify", "--matrix", str(path), *args, "--format", "json"]
            self.reqs.append(Request(f"verify/{name}", argv,
                                     _verify_check(matrix, args),
                                     defect=defect))

    def requests(self, index):
        return self.reqs


# --------------------------------------------------------------------------
# estimate: q-norm report, closed-form estimates, headline table
# --------------------------------------------------------------------------

QNORM_P = 0.5
QNORM_SIDE = {"full": 128, "tiny": 8}


def _qnorm_reference(a, p):
    """mu_p and chi angles from their definitions, in plain numpy."""
    absa = np.abs(a)
    row_pow = (absa ** (2 * p)).sum(axis=1)
    col_pow = (absa ** (2 * (1 - p))).sum(axis=0)
    s2p, s2q = row_pow.max(), col_pow.max()
    chi_row = np.arccos(np.minimum(1.0, np.sqrt(row_pow / s2p)))
    chi_col = np.arccos(np.minimum(1.0, np.sqrt(col_pow / s2q)))
    return math.sqrt(s2p * s2q), chi_row, chi_col


def _qnorm_check(matrix):
    mu, chi_row, chi_col = _qnorm_reference(matrix, QNORM_P)
    fro = float(np.linalg.norm(matrix))

    def check(outcome):
        out = _json_out(outcome)
        _expect(_close(out["mu_p"], mu), f"mu_p {out['mu_p']} != {mu}")
        _expect(_close(out["frobenius"], fro), "Frobenius norm differs")
        for key, ref in (("chi_row", chi_row), ("chi_col", chi_col)):
            _expect(np.allclose(out[key], ref, rtol=1e-9, atol=1e-9),
                    f"{key} differs from the numpy reference")
    return check


def _closed_form_check(name):
    pin = PINS["estimate"][name]

    def check(outcome):
        out = _json_out(outcome)
        got = [out["qubits"], out["t_count"], out["t_depth"]]
        _expect(got == pin, f"estimate {got} differs from pinned {pin}")
    return check


def _tables_check(outcome):
    rows = _json_out(outcome, trailing_lines=1)
    _expect(len(rows) == PINS["tables_rows"], f"{len(rows)} table rows")
    for row in rows:
        rounded = float(f"{row['value']:.0e}")
        _expect(rounded == row["published"] and row["match"] is True,
                f"{row['column']} N={row['N']} {row['metric']}: {row['value']} "
                f"does not round to {row['published']}")
    _expect(outcome.stdout.rstrip().endswith("all 18 match"),
            "tables does not report all 18 matching")


class EstimateWorkload(Workload):
    def __init__(self, seed, workdir, size, pins):
        side = QNORM_SIDE[size]
        matrix = uniform(np.random.default_rng(seed), side)
        self.qnorm_csv = workdir / f"qnorm-{side}.csv"
        write_csv(self.qnorm_csv, matrix)
        est = PINS["estimate_inputs"]
        common = ["estimate", "--n", str(est["n"]), "--alpha", str(est["alpha"]),
                  "--epsilon", str(est["epsilon"]), "--format", "json"]
        self.reqs = [Request(f"estimate/qnorm-{side}",
                             ["estimate", "--matrix", str(self.qnorm_csv),
                              "--norm", f"qnorm:{QNORM_P}", "--format", "json"],
                             _qnorm_check(matrix))]
        for name, args in (("fixed-ss", ("--method", "fixed", "--qram", "ss")),
                           ("fixed-bb", ("--method", "fixed", "--qram", "bb",
                                         "--lambda", "2")),
                           ("prerotated", ("--method", "prerotated"))):
            self.reqs.append(Request(f"estimate/{name}", [*common, *args],
                                     _closed_form_check(name)))
        self.reqs.append(Request("estimate/tables", ["tables", "--format", "json"],
                                 _tables_check))

    def requests(self, index):
        return self.reqs


CLASSES = {"compile": CompileWorkload, "sweep": SweepWorkload,
           "verify": VerifyWorkload, "estimate": EstimateWorkload}


def prepare(name, seed, workdir, size="full", pins=None):
    """Write the workload's seeded inputs under ``workdir``; return it."""
    workdir.mkdir(parents=True, exist_ok=True)
    return CLASSES[name](seed, workdir, size,
                         PINS["compile"] if pins is None else pins)
