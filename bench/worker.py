"""Run a list of operations in this fresh process and check each one.

    python3 bench/worker.py --ops JSON [--trace 0|1] [--setup-only]

The worker puts the checkout's ``src`` first on ``sys.path``, imports
``artifact``, loads the pinned references, then prints ``ready`` so the
parent can time set-up.  It then runs the operations in order, one
closed-loop client with no threads, and prints one JSON line: wall and
CPU time of the operations, peak RSS, how many failed, how many known
verification failures were seen, and, with tracing on, the layer
statistics.  Engine output never reaches this process's stdout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def load_engine():
    """Import the engine from the checkout this benchmark sits in."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import artifact.cli  # noqa: F401  (loads every engine module)


def load_references():
    with open(REFERENCE) as f:
        return json.load(f)


def op_key(op):
    """The reference key of an operation, e.g. 'e2 6 inf 100'."""
    kind, *rest = op
    if kind == "cli":
        return "cli " + " ".join(rest[0])
    return " ".join([kind] + [str(x) for x in rest])


def digest(obj):
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cells_from_rows(rows):
    """Canonical per-cell table from the rows of ``e2 --format json``."""
    return [[r["column"], r["degree"], r["e1"], r["kernel"], r["image"], r["e2"]]
            for r in rows]


def cells_from_report(rep):
    """Canonical per-cell table from a PageReport, same form as above."""
    return [[k, n, c.e1_rank, c.kernel_rank, c.image_rank_from_left, c.e2_rank]
            for (k, n), c in sorted(rep.cells.items())]


def call_cli(argv):
    from artifact import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def compute(op):
    """Run one operation and return what gets compared with its reference.

    For verify the result is the exit code and per-check verdicts, for
    generators a digest of the exact stdout bytes, for e2 the total
    series and a digest of the per-cell (k, n) table.
    """
    kind = op[0]
    if kind == "cli":
        argv = op[1]
        code, out = call_cli(argv)
        if argv[0] == "e2":
            payload = json.loads(out)
            return {"exit": code, "series": payload["series"],
                    "cells": digest(cells_from_rows(payload["report"]))}
        if argv[0] == "verify":
            payload = json.loads(out)
            return {"exit": code,
                    "checks": {r["check"]: r["ok"] for r in payload["report"]}}
        data = out.encode()
        return {"exit": code, "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest()}
    _, d, r, D = op
    if kind == "e2":
        from artifact.pages import e2_ranks
        rep = e2_ranks(d, r, D)
        return {"series": list(rep.total.c), "cells": digest(cells_from_report(rep))}
    if kind == "loopspace":
        from artifact.loopspace import loopspace_series
        return {"series": digest(list(loopspace_series(d, r, D).c))}
    raise ValueError("unknown operation %r" % (kind,))


def check(got, ref):
    """Compare one result with its reference.

    Returns (error or None, known verification failures seen).  For
    verify the rule is one-way: a check that passed when the reference
    was pinned must still pass, a check that failed then is counted as
    a known failure while it keeps failing, and any new check must pass.
    """
    if ref is None:
        return "no pinned reference", 0
    if "checks" not in ref:
        for field in sorted(ref):
            if got.get(field) != ref[field]:
                return "%s differs from the pinned reference" % field, 0
        return None, 0
    known = 0
    for name, ok in got["checks"].items():
        if ok:
            continue
        if ref["checks"].get(name) is False:
            known += 1
        else:
            return "check failed: %s" % name, known
    for name, ok in ref["checks"].items():
        if ok and name not in got["checks"]:
            return "check missing: %s" % name, known
    expected_exit = 0 if all(got["checks"].values()) else 1
    if got["exit"] != expected_exit:
        return "exit %d, expected %d" % (got["exit"], expected_exit), known
    return None, known


def run_ops(ops, refs, tracer=None):
    """Run and check the operations in order; returns the measurements."""
    errors = []
    known_fail = 0
    wall = 0.0
    cpu = 0.0
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in ops:
            w0 = time.perf_counter()
            c0 = time.process_time()
            try:
                got = compute(op)
            except Exception:
                got = None
                err = traceback.format_exc(limit=3).strip().splitlines()[-1]
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if got is not None:
                err, known = check(got, refs.get(op_key(op)))
                known_fail += known
            if err is not None:
                errors.append("%s: %s" % (op_key(op), err))
    return {
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "known_fail": known_fail,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_summary(tracer):
    return {
        "layers": {key: {"calls": s.calls, "self_s": s.self_s, "counts": s.counts}
                   for key, s in tracer.stats.items()},
        "absent": tracer.absent,
        "reuse": tracer.reuse,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", required=True, help="JSON list of operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    ops = json.loads(args.ops)
    load_engine()
    refs = load_references()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    result = run_ops(ops, refs, tracer)
    if tracer is not None:
        result["trace"] = trace_summary(tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
