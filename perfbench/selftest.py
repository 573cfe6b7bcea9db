"""Self-test of the benchmark harness, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted for every
workload, with tracing off and on; that the tiny request mixes pass their
reference checks apart from the recorded defects; that every compile
configuration gives its pinned counts on all four matrix variants; that a
deliberately wrong pinned count is counted as a failed request; that the
recorded reason of the controlled-verify defect holds; and that the
benchmark fails without a result when the package sources are missing.
Exits 1 on any problem.
"""
from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run

SEED = 3
problems = []


def expect(cond, message):
    if not cond:
        problems.append(message)
        print(f"FAIL {message}")


def emitted_metrics():
    e2e, layer = run.units()
    for workload in run.WORKLOADS:
        for trace, units in ((0, e2e), (1, layer)):
            res = run.measure(workload, SEED, 0, trace, size="tiny",
                              setup_children=1)
            label = f"{workload} trace={trace}"
            expect(res["correct"] and res["failed"] == 0,
                   f"{label}: {res['failures'] + res['problems']}")
            buf = io.StringIO()
            with redirect_stdout(buf):
                run.report(res, trace)
            last = json.loads(buf.getvalue().splitlines()[-1])
            expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(last)}")
            expect(set(last["metrics"]) == set(units),
                   f"{label}: metrics {sorted(set(last['metrics']) ^ set(units))}")
            if workload == "verify":
                expect(bool(res["defects"]), f"{label}: known defect not seen")
            print(f"ok   {label}: {res['attempted']} requests")


def every_variant_gives_the_pins():
    """Passes 0-3 build each configuration on all four matrix variants."""
    import workloads
    wl = workloads.prepare("compile", SEED, run.WORK / "compile", "tiny")
    statuses = [status for i in range(len(workloads.MATRIX_VARIANTS))
                for status in run.run_pass(wl, i, []).statuses]
    expect(all(status == "ok" for status, _ in statuses),
           f"matrix variants: {[r for s, r in statuses if s != 'ok']}")
    print(f"ok   every configuration on every matrix variant: "
          f"{len(statuses)} requests")


def wrong_pin_fails():
    import workloads
    target = workloads.COMPILE["tiny"][0]
    pins = dict(workloads.PINS["compile"])
    qubits, t_count, t_depth = pins[target.name]
    pins[target.name] = [qubits, t_count + 1, t_depth]
    res = run.measure("compile", SEED, 0, 0, size="tiny", pins=pins,
                      setup_children=0, min_passes=1)
    expect(res["failed"] == 1 and not res["correct"],
           f"wrong pin: failed={res['failed']} correct={res['correct']}")
    expect(any(target.name in f and "pinned" in f for f in res["failures"]),
           f"wrong pin: failure not attributed: {res['failures']}")
    expect(any(target.name in p for p in res["problems"]),
           "wrong pin passes the formula cross-check")
    print("ok   a wrong pinned count fails its request")


def controlled_defect_reason():
    """With the control qubit flipped to |1>, the block matches A/alpha."""
    import numpy as np
    from blockenc import (BlockEncodingConfig, build_controlled_block_encoding,
                          extract_block)
    from blockenc.circuit import Circuit, Gate, GateKind
    import workloads

    a = workloads.uniform(np.random.default_rng(SEED), 4)
    res = build_controlled_block_encoding(a, BlockEncodingConfig(t=10))
    flip = Gate(GateKind.X, (res.control_qubits[0],))
    c = res.circuit
    flipped = Circuit(c.registers, (flip, *c.ops, flip), c.total_qubits)
    block = extract_block(flipped, res.in_qubits).block[:4, :4]
    error = np.linalg.norm(a - res.alpha * block, 2)
    bound = math.pi * 2 * 2.0 ** -10 * res.alpha
    expect(error <= bound, f"controlled at |1>: error {error} > bound {bound}")
    print(f"ok   controlled at |1>: error {error:.3f} <= bound {bound:.3f}")


def fails_without_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "estimate",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   no sources: exits non-zero without a result")


def main():
    run.use_checkout_sources()
    emitted_metrics()
    every_variant_gives_the_pins()
    wrong_pin_fails()
    controlled_defect_reason()
    fails_without_sources()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
