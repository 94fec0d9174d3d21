"""Command-line front end.

Verbs: series, e1, e2, generators, oracle, verify, loopspace.  Output
is byte-deterministic for fixed arguments; --format picks table (plain
lines, series as comma-joined coefficients), csv (degree,value rows, or
report rows with a field quoted when it holds a comma), or json (a
single object with dim, r, max_degree, series, report).  Exit code 0
means success, 1 a verification mismatch, 2 a usage error, including an
--out file or a stdout (say a closed pipe) that cannot be written.
"""

import argparse
import csv
import io
import json
import os
import sys
from collections import namedtuple

from .grading import VariableSet, FlavoredSpace, FULL, SYM, SKEW, space_series
from .actions import oracle_crosscheck
from .e1 import column_series
from .pages import (
    e2_ranks, generator_classes, verify_generators, chain_check, collapse_check,
    assemble_columns, CheckReport, _norm_R,
)
from .loopspace import loopspace_series


class UsageError(Exception):
    pass


Result = namedtuple("Result", "exit series report table", defaults=(0, None, None, ()))


_FLAVORS = {"p": FULL, "sp": SYM, "ap": SKEW}


def _parse_space(text, D):
    """p:a,b | sp:a,b | ap:a,b | b:d -> rank series."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError("space must look like p:a,b, sp:a,b, ap:a,b or b:d")
    try:
        if kind == "b":
            d = int(rest)
            if d < 1:
                raise ValueError
            return space_series(FlavoredSpace.single(d), D)
        flavor = _FLAVORS[kind]
        a, b = (int(x) for x in rest.split(","))
        if a < 0 or b < 0:
            raise ValueError
        return space_series(FlavoredSpace(VariableSet(a, b), flavor), D)
    except (KeyError, ValueError):
        raise UsageError("bad space %r" % text)


def _series_result(ser, report=None):
    """A series verb's result: the coefficients, one comma-joined table line."""
    return Result(series=list(ser.c), report=report,
                  table=[",".join(str(x) for x in ser.c)])


def _cmd_series(args):
    return _series_result(_parse_space(args.space, args.max_degree))


def _cmd_e1(args):
    return _series_result(column_series(args.dim, args.column, args.max_degree))


def _cmd_e2(args):
    rep = e2_ranks(args.dim, args.r, args.max_degree)
    rows = []
    for (k, n) in sorted(rep.cells):
        c = rep.cells[(k, n)]
        rows.append({"column": k, "degree": n, "e1": c.e1_rank,
                     "kernel": c.kernel_rank, "image": c.image_rank_from_left,
                     "e2": c.e2_rank})
    return _series_result(rep.total, rows)


def _cmd_generators(args):
    rows = [{"degree": cl.degree, "kind": cl.kind, "family": cl.family,
             "label": cl.label()}
            for cl in generator_classes(args.dim, args.max_degree)]
    rows.sort(key=lambda r: (r["degree"], r["kind"], str(r["family"]), r["label"]))
    counts = [0] * (args.max_degree + 1)
    for r in rows:
        counts[r["degree"]] += 1
    table = ["%4d  %s" % (r["degree"], r["label"]) for r in rows]
    return Result(series=counts, report=rows, table=table)


def _cmd_oracle(args):
    rep = oracle_crosscheck(args.dim, args.level, args.max_degree)
    rows = [{"stratum": name, "ok": ok, "first_mismatch": detail or None}
            for name, ok, detail in rep.entries]
    return Result(exit=0 if rep.ok else 1, report=rows, table=rep.lines())


def _cmd_loopspace(args):
    try:
        ser = loopspace_series(args.dim, args.r, args.max_degree, args.offset)
    except ValueError as e:
        raise UsageError(str(e))
    return _series_result(ser)


def _cmd_verify(args):
    d, D = args.dim, args.max_degree
    K = max(1, D - d)
    entries = []
    for level in range(1, min(7, K) + 1):
        bad = [(name, detail) for name, ok, detail in
               oracle_crosscheck(d, level, D).entries if not ok]
        entries.append(("oracle level %d" % level, not bad,
                        "%s %s" % bad[0] if bad else ""))
    try:
        # the three checks below read one assembly, of columns 0..6; a
        # column >= 7 rests on the period-4 rule and the summed closed form
        maps = assemble_columns(d, D)
        entries += chain_check(d, D, maps=maps).entries
        entries += collapse_check(d, D, maps=maps).entries
        mis = e2_ranks(d, args.r, D).mismatch
        entries.append(("closed form matches computed ranks", mis is None,
                        "" if mis is None else
                        "first failing degree %d (all columns summed)" % mis))
        entries += verify_generators(d, D, maps=maps).entries
    except ArithmeticError as e:
        entries.append(("exactness guards hold", False, str(e)))
    rep = CheckReport("verify d=%d, D=%d" % (d, D), entries)
    rows = [{"check": name, "ok": ok, "detail": detail}
            for name, ok, detail in rep.entries]
    return Result(exit=0 if rep.ok else 1, report=rows, table=rep.lines())


def _r_value(text):
    try:
        Rn = _norm_R(text)
    except ValueError:
        raise argparse.ArgumentTypeError("r must be a positive integer or inf")
    return "inf" if Rn is None else Rn


def _int_at_least(low):
    """argparse type for an integer option that must be >= low."""
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            v = None
        if v is None or v < low:
            raise argparse.ArgumentTypeError("must be an integer >= %d" % low)
        return v
    return parse


# verb -> (help, handler, whether it takes --dim and --r, its own arguments)
_VERBS = {
    "series": ("rank series of one graded space", _cmd_series, (False, False),
               [("--space", dict(required=True, help="p:a,b | sp:a,b | ap:a,b | b:d"))]),
    "e1": ("first-page rank series of one column", _cmd_e1, (True, False),
           [("--column", dict(type=_int_at_least(0), required=True))]),
    "e2": ("second-page ranks and total series", _cmd_e2, (True, True), []),
    "generators": ("explicit fold-column generators", _cmd_generators, (True, False), []),
    "oracle": ("sign-action oracle against content tables", _cmd_oracle, (True, False),
               [("--level", dict(type=_int_at_least(1), required=True))]),
    "verify": ("full verification battery for one (dim, r)", _cmd_verify, (True, True), []),
    "loopspace": ("loop-space class algebra series", _cmd_loopspace, (True, True),
                  [("--offset", dict(type=int, default=0,
                                     help="shift every generator degree by this amount"))]),
}


def build_parser(verb=None):
    """The argument parser: with one verb's subparser when verb is given,
    with all of them otherwise.  Either way the usage lists every verb."""
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="Exact rank computations for the Morin singularity spectral sequence.")
    # a one-verb parser names every verb in its usage itself; the full one
    # leaves that to argparse, whose missing-verb error names "verb"
    sub = ap.add_subparsers(dest="verb", required=True,
                            metavar="{%s}" % ",".join(_VERBS) if verb else None)
    for name in [verb] if verb else _VERBS:
        text, fn, (dim, r), own = _VERBS[name]
        p = sub.add_parser(name, help=text)
        for flag, kw in own:
            p.add_argument(flag, **kw)
        if dim:
            p.add_argument("--dim", type=_int_at_least(1), required=True,
                           help="dimension difference d")
        if r:
            p.add_argument("--r", type=_r_value, default="inf",
                           help="truncation order, a positive integer or inf")
        p.add_argument("--max-degree", type=_int_at_least(0), default=40, dest="max_degree")
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(fn=fn)
    return ap


def _render(args, res):
    fmt = args.format
    if fmt == "table":
        return "\n".join(res.table)
    if fmt == "csv":
        if res.series is not None:
            return "\n".join("%d,%d" % (n, v) for n, v in enumerate(res.series))
        # report fields such as stratum names and check details hold commas
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [str(v) for v in row.values()] for row in res.report or [])
        return buf.getvalue().rstrip("\n")
    payload = {
        "dim": getattr(args, "dim", None),
        "r": getattr(args, "r", None),
        "max_degree": args.max_degree,
        "series": res.series,
        "report": res.report,
    }
    return json.dumps(payload)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    args = ap.parse_args(argv)
    try:
        res = args.fn(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    text = _render(args, res)
    try:
        if args.out:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as e:
        if not args.out:  # a closed stdout: keep the flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: %s" % e, file=sys.stderr)
        return 2
    return res.exit


if __name__ == "__main__":
    sys.exit(main())
