"""Benchmark a change against a parent commit in alternating pairs.

Extracts ``--parent`` with ``git archive`` into a temporary directory and
runs ``perfbench/run.py`` there and in this checkout (the change side), one
run at a time.  Pair i runs the parent first when i is even and the change
first when it is odd.  Writes ``BENCH_<name>.json``: every run's printed
summary and final JSON line, and a claim block for ``--metric`` (any
``end_to_end`` metric of BENCHMARK.json, ``wall_s`` by default) on
``--workload`` over the seeds (medians, inclusive quartiles, pairs the change
wins in the metric's ``better`` direction, median gain in that direction and
the parent's IQR); one seed is allowed, and its quartiles are its value.
The claim block also records, for that workload, the parent and change
medians of every ``end_to_end`` metric in BENCHMARK.json.
A run that exits non-zero stops the script.  If a change run is not correct,
fails a larger share of its requests than the parent run of its pair, or a
change median is worse than the parent median by more than the metric's
``bound`` (a fraction of the parent median), the claim block lists why under
``not_met`` and the script exits 1.

    python3 scripts/bench_pairs.py --parent <commit> --name sweep_multi_ry \\
        --workload sweep --metric wall_s --seeds 61-70 --seconds 25 \\
        --change "what the change does"

Extra runs that are recorded but not part of the claim can be added with
``--also workload:seed[:trace]`` (repeatable); each is run as a pair too.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _extract(commit, dest):
    archive = dest / "parent.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=fh,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")
    archive.unlink()
    return dest / "tree"


def _run(checkout, side, order, workload, seed, seconds, trace):
    argv = ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{side} run failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    run = {"order": order, "side": side, "workload": workload, "seed": seed,
           "trace": trace, "argv": argv, "summary": lines[:-1],
           "result": json.loads(lines[-1])}
    value = run["result"]["metrics"]
    print(f"{order:3d} {side:<7} {workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in value.items()),
          flush=True)
    return run


def _failures(workload, seed, got):
    """Why a pair does not back a gain: a change run that is not correct, or
    one that fails a larger share of requests than the parent run."""
    change, parent = got["change"], got["parent"]
    where = f"{workload} seed {seed}"
    reasons = []
    if not change["correct"]:
        reasons.append(f"{where}: change run not correct "
                       f"({change['failed']} of {change['attempted']} failed)")
    share = {side: run["failed"] / run["attempted"]
             for side, run in got.items()}
    if share["change"] > share["parent"]:
        reasons.append(f"{where}: {share['change']:.2%} of requests failed at "
                       f"the change, {share['parent']:.2%} at the parent")
    return reasons


def _median_check(results, end_to_end):
    """Parent and change medians of each end-to-end metric over ``results``
    (side -> list of run results), and why any change median is worse than
    the parent median by more than the metric's bound."""
    medians = {}
    reasons = []
    for spec in end_to_end:
        name = spec["name"]
        parent, change = (
            statistics.median(r["metrics"][name]["value"] for r in results[side])
            for side in ("parent", "change"))
        medians[name] = {"parent": parent, "change": change}
        worse = change - parent if spec["better"] == "lower" else parent - change
        if worse > spec["bound"] * abs(parent):
            reasons.append(f"{name}: change median {change:.4g} is worse than "
                           f"the parent median {parent:.4g} by more than its "
                           f"bound ({spec['bound']:g} of the parent)")
    return medians, reasons


def _host():
    try:
        numpy = f", numpy {metadata.version('numpy')}"
    except metadata.PackageNotFoundError:
        numpy = ""
    return (f"{platform.system()}, {os.cpu_count()} CPUs, Python "
            f"{platform.python_version()}{numpy}")


def _spread(values):
    """Median and inclusive quartiles; those of one value are that value."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": sorted(values)}


def _claim(pairs, spec):
    """Spreads, wins and gain of the claimed metric over ``pairs``; a pair
    is won when the change is better in the metric's ``better`` direction,
    and the gain is the relative median improvement in that direction."""
    parent = _spread([p["parent"] for p in pairs])
    change = _spread([p["change"] for p in pairs])
    sign = 1 if spec["better"] == "lower" else -1
    wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
    return {
        "metric": spec["name"],
        "better": spec["better"],
        "unit": spec["unit"],
        "pairs": pairs,
        "parent": parent,
        "change": change,
        "change_wins": f"{wins} of {len(pairs)}",
        "median_gain": sign * (1 - change["median"] / parent["median"]),
        "parent_iqr": parent["q3"] - parent["q1"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--change", required=True,
                        help="one line saying what the change does")
    parser.add_argument("--workload", required=True)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    specs = {spec["name"]: spec for spec in end_to_end}
    parser.add_argument("--metric", choices=sorted(specs), default="wall_s",
                        help="the end-to-end metric the claim is about")
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="e.g. 61-70 or 1,2,5")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--also", action="append", default=[],
                        help="workload:seed[:trace], recorded but not claimed")
    args = parser.parse_args(argv)

    parent_commit = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
        text=True, check=True).stdout.strip()
    jobs = [(args.workload, seed, 0) for seed in args.seeds]
    for spec in args.also:
        workload, seed, *trace = spec.split(":")
        jobs.append((workload, int(seed), int(trace[0]) if trace else 0))

    runs = []
    pairs = []
    claimed = {"parent": [], "change": []}
    not_met = []
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = _extract(parent_commit, Path(tmp))
        for i, (workload, seed, trace) in enumerate(jobs):
            sides = [("parent", parent_tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            got = {}
            for side, checkout in sides:
                run = _run(checkout, side, len(runs) + 1, workload, seed,
                           args.seconds, trace)
                runs.append(run)
                got[side] = run["result"]
            not_met.extend(_failures(workload, seed, got))
            if i < len(args.seeds):
                for side, result in got.items():
                    claimed[side].append(result)
                pairs.append({"seed": seed, **{
                    side: got[side]["metrics"][args.metric]["value"]
                    for side in ("parent", "change")}})

    medians, worse = _median_check(claimed, end_to_end)
    not_met.extend(f"{args.workload}: {reason}" for reason in worse)
    claim = {"workload": args.workload, "seeds": list(args.seeds),
             **_claim(pairs, specs[args.metric]), "end_to_end": medians}
    record = {
        "name": args.name,
        "change": args.change,
        "parent_commit": parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds:g} --trace T",
        "how": "each side run from its own checkout (the parent extracted "
               "with git archive), one run at a time, alternating which side "
               "runs first; 'summary' is the run's printed table and "
               "'result' its last stdout line",
        "host": _host(),
        "claim": claim,
        "runs": runs,
    }
    if not_met:
        claim["not_met"] = not_met
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{out.name}: {args.metric} parent median "
          f"{claim['parent']['median']:.4g}, change median "
          f"{claim['change']['median']:.4g} (gain {claim['median_gain']:+.1%}),"
          f" change wins {claim['change_wins']}, parent IQR "
          f"{claim['parent_iqr']:.4g}")
    for reason in not_met:
        print(f"claim not met: {reason}")
    return 1 if not_met else 0


if __name__ == "__main__":
    raise SystemExit(main())
