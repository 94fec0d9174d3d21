"""Write reference.json: the pinned result of every operation any seed can ask for.

    python3 bench/pin.py

Run it only when the engine's correct output is meant to change; the
benchmark's correctness check is a comparison with this file.  Takes
about a minute, most of it one e2 grid at (10, 80).
"""

import json
import sys

import workloads
import worker


def all_ops():
    ops = [("cli", workloads.e2_cold_argv(r)) for r in workloads.R_VALUES]
    ops += workloads.certify_plan(0)
    ops += workloads.session_plan(0)
    return ops


def main():
    worker.load_engine()
    refs = {}
    for op in all_ops():
        refs[worker.op_key(op)] = worker.compute(op)
        print(worker.op_key(op), file=sys.stderr)
    # one operation per line, so a re-pin shows in a diff as the ops that changed
    with open(worker.REFERENCE, "w") as f:
        f.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(refs[key], sort_keys=True))
            for key in sorted(refs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
