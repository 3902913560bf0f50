"""Benchmark of qgalois: time from a cold start to a verdict.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Runs the workload's operations one at a time, each in a fresh interpreter
(perfbench/worker.py), in whole passes for about --seconds, then
checks every output with perfbench/checks.py and prints one JSON line:
``correct``, ``attempted``, ``failed`` and the metrics.  With --trace 0 these
are the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics, plus the tracing overhead.

Raw per-operation records go to perfbench/out/runs/, spans to
perfbench/out/traces/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from workloads import WORKLOADS, control_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
OP_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "verdict_p50_s": "s",
              "peak_rss_mb": "MB"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(op: dict, traced: bool) -> dict:
    """One operation in a fresh interpreter; the worker's record plus set-up time."""
    job = {"fn": op["fn"], "args": op["args"]}
    # a fixed hash seed keeps set and dict order, hence the work done, the
    # same in every process
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job), "1" if traced else "0"],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"id": op["id"], "error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"id": op["id"], "error": f"worker exited {proc.returncode}: {err.strip()}"}
    record = json.loads(lines[-1])
    record["id"] = op["id"]
    record["setup_s"] = record.pop("ready") - start
    return record


def run_pass(ops: list, traced: bool) -> list:
    return [run_op(op, traced) for op in ops]


def verdict_problem(op: dict, record: dict):
    """Why the operation failed, or None: an exception, exit code 2, or a
    verdict other than the one known in advance."""
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    verdict, expect = record["verdict"], op["expect"]
    if "exit" in expect:
        if verdict["exit"] != expect["exit"]:
            return f"exit {verdict['exit']}, expected {expect['exit']}"
        if expect["exit"] == 0 and (verdict["fails"] or not verdict["checks"]):
            return "exit 0 with a FAIL line or without any CHECK line"
        if expect["exit"] == 1 and not any(expect["fail_on"] in ln
                                           for ln in verdict["fails"]):
            return f"no FAIL on {expect['fail_on']}: {verdict['fails']}"
        return None
    if "ok" in expect and verdict.get("ok") != expect["ok"]:
        return f"verdict {verdict.get('ok')}, expected {expect['ok']}"
    return None


def judge(ops: list, passes: list):
    """(failed executions, output problems) over every pass."""
    failed, problems, seen = 0, [], {}
    for records in passes:
        for op, rec in zip(ops, records):
            why = verdict_problem(op, rec)
            if why is not None:
                failed += 1
                print(f"FAILED {op['id']}: {why}", file=sys.stderr)
                continue
            key = json.dumps([op, rec.get("output")], sort_keys=True)
            if key not in seen:
                seen[key] = checks.check_output(op, rec["output"])
                problems += [f"{op['id']}: {p}" for p in seen[key]]
    return failed, problems


def per_op_median(passes: list, key: str) -> list:
    """For each operation, the median of `key` over the passes it completed."""
    out = []
    for records in zip(*passes):
        values = [r[key] for r in records if key in r]
        if values:
            out.append(statistics.median(values))
    return out


def end_to_end(passes: list) -> dict:
    wall = per_op_median(passes, "wall_s")
    return {
        "setup_s": statistics.median(r["setup_s"] for rs in passes for r in rs
                                     if "setup_s" in r),
        "wall_s": sum(wall),
        "cpu_s": sum(per_op_median(passes, "cpu_s")),
        "verdict_p50_s": statistics.median(r["wall_s"] for rs in passes for r in rs
                                           if "wall_s" in r),
        "peak_rss_mb": max(per_op_median(passes, "rss_mb")),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Each layer metric summed over a pass's operations; the lower median over
    the traced passes, so that a count stays a count."""
    sums = [{} for _ in traced]
    for total, records in zip(sums, traced):
        for rec in records:
            for key, value in rec.get("layers", {}).items():
                total[key] = total.get(key, 0) + value
    keys = sorted({k for s in sums for k in s})
    out = {k: statistics.median_low(s.get(k, 0) for s in sums) for k in keys}
    out["trace.overhead_s"] = (sum(per_op_median(traced, "wall_s"))
                               - sum(per_op_median(plain, "wall_s")))
    return out


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def write_raw(name: str, passes: list, traced_passes: list):
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    slim = [[{k: v for k, v in r.items() if k not in ("output", "spans")} for r in rs]
            for rs in passes + traced_passes]
    with open(os.path.join(OUT, "runs", name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(slim, fh, indent=1)
    if traced_passes:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        with open(os.path.join(OUT, "traces", name + ".jsonl"), "w", encoding="utf-8") as fh:
            for p, records in enumerate(traced_passes):
                for rec in records:
                    for index, span in enumerate(rec.get("spans", [])):
                        fh.write(json.dumps({"pass": p, "op": rec["id"], "index": index,
                                             "name": span[0], "start": span[1],
                                             "end": span[2], "parent": span[3]}) + "\n")


def build_ops(workload: str, seed: int) -> list:
    sys.path.insert(0, SRC)
    files = control_files(os.path.join(OUT, "inputs"), ROOT)
    return WORKLOADS[workload](seed, files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgalois", "__init__.py")):
        print(f"error: no qgalois sources under {SRC}", file=sys.stderr)
        return 2
    ops = build_ops(args.workload, args.seed)

    plain, traced = [], []
    deadline = monotonic() + args.seconds
    while True:
        started = monotonic()
        plain.append(run_pass(ops, False))
        if args.trace:
            traced.append(run_pass(ops, True))
        # start another pass only if it ends closer to the deadline than now
        now = monotonic()
        if now + (now - started) / 2 >= deadline:
            break
    if all("error" in r for r in plain[0]):
        print("error: no operation ran; first failure:\n" + plain[0][0]["error"],
              file=sys.stderr)
        return 2

    failed, problems = judge(ops, plain + traced)
    misjudged = checks.self_test()
    for line in problems + misjudged:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    write_raw(f"{args.workload}-seed{args.seed}-trace{args.trace}", plain, traced)

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(plain, traced).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(plain).items()}
    result = {"correct": not problems and not misjudged,
              "attempted": len(ops) * (len(plain) + len(traced)),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
