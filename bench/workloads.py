"""Workload plans: what each benchmark run asks the engine to do.

A plan is a list of operations made only from the workload name and
the seed, so the same seed always gives the same inputs.  Operations
are plain tuples that survive a round trip through JSON:

    ("cli", argv)         artifact.cli.main(argv), stdout captured
    ("e2", d, r, D)       artifact.pages.e2_ranks(d, r, D)
    ("loopspace", d, r, D)  artifact.loopspace.loopspace_series(d, r, D)

This module imports nothing from the engine; the parent process uses it
to validate names and the worker uses it to build its pass.
"""

import random

R_VALUES = ("1", "2", "3", "4", "inf")

# e2-cold: the smallest grid where exact rank dominates and one cold
# build still fits the run budget; (10, 100) takes over two minutes.
E2_COLD_DIM, E2_COLD_DEGREE = 10, 80

# certify: the verify and generators verbs at sizes of a few seconds
# each.  verify at (8, 60) keeps the known even-d generator-span gap.
CERTIFY_OPS = (
    ("verify", 7, 80),
    ("verify", 8, 60),
    ("generators", 8, 80),
)

# session-sweep: one warm library session at d = 6 over this grid.
SESSION_DIM = 6
SESSION_DEGREES = (40, 50, 60, 70, 80, 90, 100)


def _rng(name, seed):
    return random.Random("%s/%d" % (name, seed))


def e2_cold_argv(r):
    return ["e2", "--dim", str(E2_COLD_DIM), "--max-degree", str(E2_COLD_DEGREE),
            "--r", r, "--format", "json"]


def e2_cold_plan(seed):
    """One cold e2 request at (10, 80); the seed picks the truncation."""
    return [("cli", e2_cold_argv(_rng("e2-cold", seed).choice(R_VALUES)))]


def certify_argv(verb, d, D):
    argv = [verb, "--dim", str(d), "--max-degree", str(D)]
    if verb == "verify":
        argv += ["--format", "json"]
    return argv


def certify_plan(seed):
    """The three certify ops, each cold, in an order set by the seed."""
    ops = [("cli", certify_argv(*op)) for op in CERTIFY_OPS]
    _rng("certify", seed).shuffle(ops)
    return ops


def session_requests(seed):
    """The 35 (D, r) requests of one session, in seed order.

    Every (D, r) pair of the grid appears once.  The seed shuffles the
    pairs, then the degrees are renamed so that each D is first asked
    for in ascending order.  Every seed therefore pays the same seven
    grid builds, and what the seed changes is how later requests
    revisit smaller D, which is what a grid cache reads.
    """
    pairs = [(D, r) for D in SESSION_DEGREES for r in R_VALUES]
    _rng("session-sweep", seed).shuffle(pairs)
    rename = {}
    for D, _ in pairs:
        if D not in rename:
            rename[D] = SESSION_DEGREES[len(rename)]
    return [(rename[D], r) for D, r in pairs]


def session_plan(seed):
    ops = []
    for D, r in session_requests(seed):
        r = r if r == "inf" else int(r)
        ops.append(("e2", SESSION_DIM, r, D))
        ops.append(("loopspace", SESSION_DIM, r, D))
    return ops


# name -> (plan, whether every op runs cold, in a process of its own)
WORKLOADS = {
    "e2-cold": (e2_cold_plan, True),
    "certify": (certify_plan, True),
    "session-sweep": (session_plan, False),
}


def plan(name, seed):
    make, cold = WORKLOADS[name]
    return make(seed), cold
