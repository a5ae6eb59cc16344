#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, standard library only.

Runs BENCHMARK.json's `command` plus `--workload W --seed S --trace 0`
in the root of two checkouts, PARENT and CHANGE, N times each. The runs
go in pairs, and within a pair the side that runs first alternates, so
a slow spell of a shared host falls on both sides. Each side's
benchmark is built once before the first pair, so no timed run pays for
compilation.

For every run it prints the UTC start time, the side, the wall seconds
and the exit status. A run still going after 20 x `run_seconds` is
killed, with its children, and reported as timed out. At the end, for
each `end_to_end` metric, it prints the parent and change medians, the
change/parent ratio, the pairs the change won (ties count for neither
side) and the parent's quartile spread, next to the metric's bound.

Usage:

    python3 tools/pairs.py --parent DIR --change DIR --workload W --pairs N [--seed S]

A run that fails, times out or prints no result line is left out of the
medians, and so is its pair from the count of pairs won.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

# A run this many times the benchmark's `run_seconds` is stuck, not slow.
TIMEOUT_RUNS = 20
# The benchmark CLI's default `--seed`.
DEFAULT_SEED = 64205


def build(root, command):
    """Compile the benchmark a `cargo run` command would run."""
    if command[:2] != ["cargo", "run"]:
        return
    flags = command[2 : command.index("--")] if "--" in command else command[2:]
    subprocess.run(["cargo", "build", *flags], cwd=root, check=True)


def run(root, command, timeout):
    """One benchmark run: wall seconds, the exit status (None when it
    timed out) and the result line's (metrics, failed, attempted), or
    None without one."""
    started = time.monotonic()
    child = subprocess.Popen(
        command,
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=timeout)
        status = child.returncode
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        status = None
    wall = time.monotonic() - started
    result = None
    lines = out.strip().splitlines()
    if status == 0 and lines:
        try:
            line = json.loads(lines[-1])
            values = {k: m["value"] for k, m in line["metrics"].items()}
            result = (values, line["failed"], line["attempted"])
        except (ValueError, KeyError, TypeError):
            pass
    if result is None and status is not None:
        sys.stderr.write(err[-2000:])
    return wall, status, result


def spread(values):
    """The distance between the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="root of the parent commit's checkout")
    ap.add_argument("--change", required=True, help="root of the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    command = manifest["command"] + [
        "--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
    ]
    timeout = TIMEOUT_RUNS * manifest["run_seconds"]
    roots = {"parent": args.parent, "change": args.change}
    for side, root in roots.items():
        print(f"building {side} in {root}", flush=True)
        build(root, manifest["command"])

    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            start = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            wall, status, result = run(roots[side], command, timeout)
            said = "timed out" if status is None else f"exit {status}"
            if status == 0 and result is None:
                said += ", no result line"
            print(f"{start}  pair {pair + 1}/{args.pairs}  {side:6}  {wall:7.1f} s  {said}", flush=True)
            results[side].append(result)

    print(f"\n{args.workload}, seed {args.seed}:")
    for side, runs in results.items():
        done = [r for r in runs if r is not None]
        failed = sum(r[1] for r in done)
        attempted = sum(r[2] for r in done)
        print(f"  {side}: {len(done)}/{len(runs)} runs completed, {failed}/{attempted} operations failed")
    pairs = [(p[0], c[0]) for p, c in zip(results["parent"], results["change"]) if p and c]
    print(
        f"\n  {'metric':22} {'parent median':>14} {'change median':>14} {'ratio':>7}"
        f" {'change won':>10} {'parent IQR':>11} {'bound':>6}"
    )
    for metric in manifest["end_to_end"] if pairs else []:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        pm, cm = statistics.median(parent), statistics.median(change)
        ratio = f"{cm / pm:7.3f}" if pm else "    n/a"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        print(
            f"  {name:22} {pm:14.6g} {cm:14.6g} {ratio} {f'{won}/{len(pairs)}':>10}"
            f" {spread(parent):11.4g} {metric['bound']:6.2f}"
        )


if __name__ == "__main__":
    main()
