"""Benchmark of the artifact engine, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are e2-cold, certify and session-sweep (see README.md next
to this file).  Every pass of a workload runs in fresh child processes,
one closed-loop client and no threads: a cold workload starts one
process per operation, so every operation meets empty caches, and the
warm session-sweep runs its whole pass in one process.

With --trace 0 the run repeats passes while the next one is expected
to end within S seconds (at least one pass) and reports the medians of
the end-to-end metrics.  With --trace 1 it runs one untraced and one
traced pass and reports the per-layer metrics of the traced one.  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Every result is checked against the
references pinned in reference.json; an operation that raises or
differs from them counts as failed.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

RUN_LIMIT_S = 170   # a run must end within 180 s
SETUP_PROBES = 4    # set-up-only workers started before, and again after, the passes
CALIB_STEPS = 200000

# layers whose self time is reported
SELF_TIMES = (
    "linalg.rank", "differentials.assemble_matrix", "e1.build_basis",
    "grading.s_hom", "differentials.d0", "pages.generator_classes",
    "pages.verify_generators", "pages.collapse_check",
    "actions.oracle_crosscheck", "loopspace.loopspace_series",
    "loopspace.free_gca_series", "pages.closed_form", "cli.main",
)
# layers whose call count is reported
CALL_COUNTS = (
    "linalg.rank", "differentials.assemble_matrix", "e1.build_basis",
    "grading.s_hom", "pages.e2_ranks",
)
# metric name -> (layer, count key)
TRACED_COUNTS = {
    "linalg.rank.rows": ("linalg.rank", "rows"),
    "linalg.rank.max_rows": ("linalg.rank", "max_rows"),
    "differentials.nnz": ("differentials.assemble_matrix", "nnz"),
    "e1.basis_elements": ("e1.build_basis", "basis_elements"),
}


def host_probe():
    """Seconds for a fixed stdlib Fraction loop; explains a slow host, rescales nothing."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIB_STEPS + 1):
        acc += Fraction(i % 97, 1 + i % 89)
    return time.perf_counter() - t0


def spawn(ops, deadline, trace=False, setup_only=False):
    """Run one worker process.  Returns (setup seconds, result, error)."""
    cmd = [sys.executable, WORKER, "--ops", json.dumps(ops), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # unbuffered, so reading the ready line takes nothing that communicate() needs
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            return None, None, "worker did not start"
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return setup, None, "worker ran past the run's time limit"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if setup_only:
        return setup, None, None if proc.returncode == 0 else "worker failed"
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup, None, "worker exited with %d" % proc.returncode
    try:
        return setup, json.loads(lines[-1]), None
    except ValueError:
        return setup, None, "worker printed no result"


def probe_setup(deadline):
    """Set-up times of SETUP_PROBES workers that only start, or None if one fails."""
    out = []
    for _ in range(SETUP_PROBES):
        setup, _, err = spawn([], deadline, setup_only=True)
        if err is not None:
            return None
        out.append(setup)
    return out


def pass_groups(workload, seed):
    """The operations of one pass, grouped by the process that runs them."""
    ops, cold = workloads.plan(workload, seed)
    return [[op] for op in ops] if cold else [ops]


def run_pass(groups, deadline, trace=False):
    """One pass over the workload: each group of operations in its own process."""
    acc = {"attempted": 0, "failed": 0, "errors": [], "known_fail": 0,
           "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setup": [], "traces": []}
    for ops in groups:
        setup, res, err = spawn(ops, deadline, trace)
        if setup is not None:
            acc["setup"].append(setup)
        acc["attempted"] += len(ops)
        if res is None:
            acc["failed"] += len(ops)
            acc["errors"].append(err)
            continue
        acc["failed"] += res["failed"]
        acc["errors"] += res["errors"]
        acc["known_fail"] += res["known_fail"]
        acc["wall_s"] += res["wall_s"]
        acc["cpu_s"] += res["cpu_s"]
        acc["peak_rss_mb"] = max(acc["peak_rss_mb"], res["peak_rss_mb"])
        if "trace" in res:
            acc["traces"].append(res["trace"])
    return acc


def merge_traces(traces):
    """Sum layer statistics over the processes of one pass (max for max_* counts)."""
    layers, absent, reuse = {}, set(), [0, 0]
    for tr in traces:
        absent.update(tr["absent"])
        reuse = [reuse[0] + tr["reuse"][0], reuse[1] + tr["reuse"][1]]
        for key, s in tr["layers"].items():
            m = layers.setdefault(key, {"calls": 0, "self_s": 0.0, "counts": {}})
            m["calls"] += s["calls"]
            m["self_s"] += s["self_s"]
            for name, v in s["counts"].items():
                old = m["counts"].get(name, 0)
                m["counts"][name] = max(old, v) if name.startswith("max_") else old + v
    return layers, sorted(absent), reuse


def end_to_end_metrics(passes, setup):
    """Medians over the passes of a run, and over its set-up samples."""
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def layer_metrics(untraced, traced, calib, attempted, failed):
    layers, absent, reuse = merge_traces(traced["traces"])
    empty = {"calls": 0, "self_s": 0.0, "counts": {}}
    out = {}
    for key in SELF_TIMES:
        out[key + ".self_s"] = (layers.get(key, empty)["self_s"], "s")
    for key in CALL_COUNTS:
        out[key + ".calls"] = (layers.get(key, empty)["calls"], "count")
    for name, (key, count) in TRACED_COUNTS.items():
        out[name] = (layers.get(key, empty)["counts"].get(count, 0), "count")
    out["pages.grid_reuse_ratio"] = (reuse[0] / reuse[1] if reuse[1] else 0.0, "ratio")
    out["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"]
                                   if untraced["wall_s"] else 0.0, "ratio")
    out["trace.absent_targets"] = (len(absent), "count")
    out["host.calib_s"] = (calib, "s")
    out["verify.known_fail"] = (traced["known_fail"], "count")
    out["fail_ratio"] = (failed / attempted, "ratio")
    return out, absent


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark one workload of the artifact engine.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "artifact", "__init__.py")):
        print("error: no engine at src/artifact next to the benchmark", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    groups = pass_groups(args.workload, args.seed)
    calib = host_probe()
    setup = probe_setup(deadline)
    if setup is None:
        print("error: the engine does not start", file=sys.stderr)
        return 2

    passes = []
    if args.trace:
        passes.append(run_pass(groups, deadline))
        passes.append(run_pass(groups, deadline, trace=True))
    else:
        first = time.perf_counter()
        while True:
            passes.append(run_pass(groups, deadline))
            elapsed = time.perf_counter() - first
            if passes[-1]["failed"] or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    setup += probe_setup(deadline) or []
    for p in passes:
        setup += p["setup"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for err in [e for p in passes for e in p["errors"]]:
        print("FAILED %s" % err, file=sys.stderr)
    if args.trace:
        metrics, absent = layer_metrics(passes[0], passes[1], calib, attempted, failed)
        if absent:
            print("absent trace targets: %s" % ", ".join(absent))
    else:
        metrics = end_to_end_metrics(passes, setup)
    print("%s seed %d: %d pass(es), %d/%d ops failed, verify.known_fail %d, host.calib_s %.3f"
          % (args.workload, args.seed, len(passes), failed, attempted,
             passes[-1]["known_fail"], calib))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
