"""blockenc benchmark: closed-loop in-process CLI requests on seeded inputs.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client sends one ``blockenc.cli.main([...])`` request at a time from
this process (a closed loop with no threads).  A pass is one run through the
workload's request mix; passes repeat until the next one would take the
summed request time past ``--seconds``, and at least two untraced passes
(one traced pair) run.  Every request's output is checked against a
reference (see ``workloads.py``), outside the timed requests.  Each
request's time is scaled to a fixed host speed by a kernel timed while it
runs (see ``hostspeed.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, from
traced passes that alternate with untraced ones.  ``--workload all`` runs
every workload in its own process and prints one table.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing

# One client and no threads: numpy's BLAS runs on the client's thread, so
# its thread pool neither starts in set-up nor competes for the two cores.
# Set before numpy is first imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("compile", "sweep", "verify", "estimate")
SETUP_SAMPLES = 5
MIN_PASSES = 2      # untraced passes a run makes, however long one takes
CHILD_TIMEOUT_S = 150

SPAN_METRICS = (
    "angle_tree.matrix_trees", "angle_tree.qnorm_profile", "qram.build",
    "stateprep.build", "encoding.build_block_encoding",
    "circuit.count_resources", "circuit.write_circuit_text",
    "circuit.parse_circuit_text", "resources.cross_validate",
    "resources.sweep_cross_validation", "resources.reproduce_headline_table",
    "simulator.extract_block", "simulator.spectral_norm",
)
COUNT_METRICS = (
    "encoding.ops", "encoding.gates_expanded", "circuit.count_calls",
    "circuit.text_bytes", "resources.verdicts", "resources.ledger_explained",
    "resources.unexplained", "simulator.columns",
    "simulator.gate_applications", "simulator.support_cap_errors",
)


class HarnessError(Exception):
    pass


def _median(values):
    return statistics.median(values) if values else 0.0


def use_checkout_sources():
    """Put the checkout's ``src`` first on the path (imported in set-up)."""
    if not (SRC / "blockenc" / "__init__.py").is_file():
        raise HarnessError(f"no blockenc sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload, seed, workdir, size, pins=None):
    """Import numpy and blockenc, write the seeded inputs, warm up once.

    Returns (seconds scaled to the nominal host speed, workload object).
    """
    with hostspeed.HostSpeed() as speed:
        first = speed.mark()
        start, overhead = time.perf_counter(), speed.overhead
        wl = _setup(workload, seed, workdir, size, pins)
        elapsed = time.perf_counter() - start - (speed.overhead - overhead)
        return elapsed * speed.factor(first), wl


def _setup(workload, seed, workdir, size, pins):
    import numpy as np
    import blockenc
    import workloads
    from blockenc import cli
    if not Path(blockenc.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"imported blockenc from {blockenc.__file__}, "
                           f"not from {SRC}")
    wl = workloads.prepare(workload, seed, workdir, size, pins)
    warm = workdir / "warmup.csv"
    workloads.write_csv(warm, workloads.uniform(np.random.default_rng(seed), 2))
    with redirect_stdout(io.StringIO()):
        code = cli.main(["build", "--matrix", str(warm), "--t", "3",
                         "--ry", "10", "--format", "json"])
    if code != 0:
        raise HarnessError(f"warm-up build exited {code}")
    return wl


def _child(*args):
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_in_child(workload, seed, size, k):
    """Set-up time of a fresh process, writing into its own directory."""
    workdir = WORK / "setup" / f"{workload}-{k}"
    try:
        return _child("--setup-child", workdir, "--workload", workload,
                      "--seed", seed, "--size", size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def qnorm_rss_delta_mb(csv_path):
    """Resident-memory growth of a fresh process across one q-norm profile.

    A fresh process, because freed arrays stay resident in this one.  The
    resident size comes from /proc/self/statm (Linux): a forked child's
    getrusage peak starts at its parent's resident size.
    """
    return _child("--qnorm-rss", csv_path)


def _resident_mb():
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _child_qnorm_rss(csv_path):
    import numpy as np
    from blockenc.angle_tree import qnorm_profile
    import workloads
    matrix = np.loadtxt(csv_path, delimiter=",")
    before = _resident_mb()
    data = qnorm_profile(matrix, workloads.QNORM_P)
    after = _resident_mb()
    del data
    return after - before


def run_request(req, blocks, tracer=None, request_id=None, speed=None):
    """One closed-loop request; returns (Outcome, seconds).

    The seconds leave out the time ``speed``'s timer handler took.
    """
    from blockenc import cli
    from blockenc.circuit import parse_circuit_text
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    blocks.clear()
    code = error = circuit = None
    scope = tracer.request(request_id) if tracer else nullcontext()
    overhead = speed.overhead if speed else 0.0
    start = time.perf_counter()
    with scope, redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(req.argv)
            if req.parse is not None and code == 0:
                text = req.parse.read_text()
                with tracer.span("circuit.parse_circuit_text") if tracer \
                        else nullcontext():
                    circuit = parse_circuit_text(text)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a request that raises is a failed request
            error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if speed:
        elapsed -= speed.overhead - overhead
    return Outcome(code, out.getvalue(), err.getvalue(), error, circuit,
                   list(blocks)), elapsed


def _layer_metrics(tracer, first_span):
    times = tracer.self_times(first_span)
    counts = tracer.counts
    metrics = {f"{name}_s": times[name] for name in SPAN_METRICS}
    metrics["cli.self_s"] = times[tracing.REQUEST]
    metrics.update({name: counts[name] for name in COUNT_METRICS})
    built = counts["circuits_built"]
    metrics["circuit.count_calls_per_circuit"] = (
        counts["circuit.count_calls"] / built if built else 0.0)
    return metrics


@dataclass
class Pass:
    wall: float           # summed request seconds, as measured
    statuses: list        # (status, reason) per request
    layers: dict | None   # per-layer metrics of a traced pass
    scaled: float         # ``wall`` scaled to the nominal host speed

    @property
    def factor(self):
        return self.scaled / self.wall


def run_pass(wl, index, blocks, tracer=None, speed=None, requests=None):
    """One run through the workload's requests (or through ``requests``).

    With ``speed`` (a running ``HostSpeed``), each request's time is also
    scaled by the host-speed factor of its own interval.
    """
    from workloads import classify

    wall = scaled = 0.0
    statuses = []
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.counts.clear()
    for req in wl.requests(index) if requests is None else requests:
        first = speed.mark() if speed else None
        outcome, elapsed = run_request(req, blocks, tracer,
                                       f"{index}:{req.name}", speed)
        wall += elapsed
        scaled += elapsed * (speed.factor(first) if speed else 1.0)
        statuses.append(classify(req, outcome))
    return Pass(wall, statuses,
                _layer_metrics(tracer, first_span) if tracer else None,
                scaled)


def _repeat(seconds, step, spent, min_calls=1):
    """Call ``step`` at least ``min_calls`` times, then until the next call
    would take the measured time past ``seconds``; ``spent(result)`` is a
    call's measured time, which leaves out the output checks."""
    results = []
    while True:
        results.append(step(len(results)))
        measured = [spent(result) for result in results]
        if len(results) >= min_calls \
                and sum(measured) + _median(measured) > seconds:
            return results


def measure(workload, seed, seconds, trace, size="full", pins=None,
            setup_children=SETUP_SAMPLES - 1, min_passes=MIN_PASSES):
    """Run one workload; returns the result dict (metrics without units)."""
    workdir = WORK / workload
    setup_s, wl = setup(workload, seed, workdir, size, pins)
    setup_samples = [setup_s] + [setup_in_child(workload, seed, size, k)
                                 for k in range(setup_children)]
    problems = wl.pin_problems()
    blocks = []
    restore_capture = tracing.capture_blocks(blocks)
    try:
        if trace:
            tracer = tracing.Tracer()

            def step(i):
                plain = run_pass(wl, 2 * i, blocks)
                restore = tracing.install(tracer)
                try:
                    traced = run_pass(wl, 2 * i + 1, blocks, tracer)
                finally:
                    restore()
                problems.extend(wl.trace_problems(tracer.counts))
                return plain, traced

            pairs = _repeat(seconds, step,
                            lambda pair: pair[0].wall + pair[1].wall)
            passes = [one for pair in pairs for one in pair]
            closing = wl.closing_requests()
            if closing:
                restore = tracing.install(tracer)
                try:
                    passes.append(run_pass(wl, "closing", blocks, tracer,
                                           requests=closing))
                finally:
                    restore()
                problems.extend(wl.trace_problems(tracer.counts, closing=True))
            layers = [traced.layers for _, traced in pairs]
            metrics = {name: _median([layer[name] for layer in layers])
                       for name in layers[0]}
            metrics["trace.overhead_s"] = (
                _median([traced.wall for _, traced in pairs])
                - _median([plain.wall for plain, _ in pairs]))
            metrics["angle_tree.qnorm_rss_delta_mb"] = (
                qnorm_rss_delta_mb(wl.qnorm_csv) if wl.qnorm_csv else 0.0)
            (workdir / "spans.json").write_text(json.dumps(tracer.dump()))
        else:
            with hostspeed.HostSpeed() as speed:
                passes = _repeat(
                    seconds, lambda i: run_pass(wl, i, blocks, speed=speed),
                    lambda one: one.wall, min_passes)
            metrics = {
                "setup_s": _median(setup_samples),
                "wall_s": _median([one.scaled for one in passes]),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        restore_capture()
    statuses = [s for one in passes for s in one.statuses]
    if not trace:
        metrics["ok_ratio"] = (sum(status == "ok" for status, _ in statuses)
                               / len(statuses))
    failures = [reason for status, reason in statuses if status == "failed"]
    defects = Counter(reason for status, reason in statuses
                      if status == "defect")
    return {
        "workload": workload, "seed": seed, "passes": len(passes),
        "correct": not failures and not problems,
        "attempted": len(statuses), "failed": len(failures),
        "metrics": metrics, "failures": failures[:20],
        "problems": problems, "defects": dict(defects),
        "walls": [one.wall for one in passes],
        "factors": [one.factor for one in passes],
        "setup_samples": setup_samples,
    }


def units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def report(result, trace):
    """Human-readable lines, then the one-line JSON result."""
    e2e, layer = units()
    wanted = layer if trace else e2e
    missing = set(wanted) - set(result["metrics"])
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    attempted = result["attempted"]
    not_ok = result["failed"] + sum(result["defects"].values())
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']}  requests {attempted}  "
          f"fail_ratio {not_ok / attempted:.4f} ({not_ok} of {attempted})")
    for label, key in (("pass walls (s)", "walls"),
                       ("host-speed factors", "factors"),
                       ("set-up samples, scaled (s)", "setup_samples")):
        print(f"  {label}: "
              + ", ".join(f"{v:.4f}" for v in result[key]))
    for name, unit in wanted.items():
        print(f"  {name:<42} {result['metrics'][name]:>14.6g} {unit}")
    for reason, count in result["defects"].items():
        print(f"  known defect, {count} request(s): {reason}")
    for line in result["problems"] + result["failures"]:
        print(f"  FAILED: {line}")
    print(json.dumps({
        "correct": result["correct"], "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in wanted.items()},
    }))


def run_all(seed, seconds, trace):
    """Every workload in its own process, then one table."""
    e2e, _ = units()
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            raise HarnessError(f"{workload} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        rows.append((workload, json.loads(proc.stdout.splitlines()[-1])))
    print()
    if trace:
        return
    names = list(e2e)
    print(f"{'workload':<10}" + "".join(f"{n + ' (' + e2e[n] + ')':>20}"
                                        for n in names)
          + f"{'fail_ratio':>12}{'correct':>9}")
    for workload, res in rows:
        values = "".join(f"{res['metrics'][n]['value']:>20.4f}" for n in names)
        fail_ratio = 1.0 - res["metrics"]["ok_ratio"]["value"]
        print(f"{workload:<10}{values}{fail_ratio:>12.4f}{str(res['correct']):>9}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--qnorm-rss", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
        if args.setup_child:
            print(setup(args.workload, args.seed, args.setup_child,
                        args.size)[0])
        elif args.qnorm_rss:
            print(_child_qnorm_rss(args.qnorm_rss))
        elif args.workload == "all":
            run_all(args.seed, args.seconds, args.trace)
        else:
            report(measure(args.workload, args.seed, args.seconds, args.trace,
                           args.size), args.trace)
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
