"""Coarse layer tracing from outside the engine.

The tracer wraps whole public functions of the engine: whole matrices,
whole bases, whole rank calls, whole verbs.  It never wraps the
per-element ``differential``: wrapping it was measured to cost about
20 % at (10, 80).  ``d0`` and ``s_hom`` are wrapped, but they run only
on column-0 elements and Whitney images, a few thousand calls a run.

A wrapper replaces the function object under every name that points to
it in any loaded ``artifact`` module, so ``from .linalg import rank``
in another module is traced as well.  ``restore`` puts every original
back.  A target that no longer exists, or whose arguments or result
no longer have the counted shape, is listed in ``absent`` and its
metrics read 0; the run goes on.

Self time is the time of a call minus the time of the traced calls it
made, so the self times of all layers add up to the time spent inside
outermost traced calls.
"""

import importlib
import sys
import time

PACKAGE = "artifact"


def _rank_rows(stats, args, result):
    rows = len(args[0])
    stats.add("rows", rows)
    stats.peak("max_rows", rows)


def _assemble_nnz(stats, args, result):
    stats.add("nnz", sum(len(col) for col in result.cols))


def _basis_elements(stats, args, result):
    stats.add("basis_elements", len(result))


# (module, function, counter run on every call's arguments and result)
TARGETS = (
    ("cli", "main", None),
    ("pages", "e2_ranks", None),
    ("pages", "closed_form", None),
    ("pages", "generator_classes", None),
    ("pages", "verify_generators", None),
    ("pages", "collapse_check", None),
    ("actions", "oracle_crosscheck", None),
    ("loopspace", "loopspace_series", None),
    ("loopspace", "free_gca_series", None),
    ("differentials", "assemble_matrix", _assemble_nnz),
    ("differentials", "d0", None),
    ("e1", "build_basis", _basis_elements),
    ("grading", "s_hom", None),
    ("linalg", "rank", _rank_rows),
)


class LayerStats:
    """Calls, self time and named counts of one traced function."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        if n > self.counts.get(key, 0):
            self.counts[key] = n


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` afterwards."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.reuse = [0, 0]  # e2 requests without any assemble_matrix call, all e2 requests
        self._stack = []
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        importlib.import_module(PACKAGE)
        for modname, fname, counter in TARGETS:
            key = "%s.%s" % (modname, fname)
            try:
                mod = importlib.import_module("%s.%s" % (PACKAGE, modname))
            except ImportError:
                mod = None
            original = getattr(mod, fname, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original, counter)
            for m in self._modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def restore(self):
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def _wrap(self, key, fn, counter):
        stats = self.stats[key] = LayerStats()
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nonlocal counter
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.calls += 1
                stats.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if counter is not None:
                try:
                    counter(stats, args, result)
                except (AttributeError, TypeError, IndexError):
                    counter = None
                    stats.counts.clear()
                    self.absent.append(key + " counts")
            return result

        if key == "pages.e2_ranks":
            traced = self._count_reuse(traced)
        traced.__wrapped__ = fn
        return traced

    def _count_reuse(self, traced):
        """Count e2 requests that assemble no matrix, i.e. read the grid cache."""
        def reusing(*args, **kwargs):
            before = self.calls("differentials.assemble_matrix")
            result = traced(*args, **kwargs)
            self.reuse[1] += 1
            if self.calls("differentials.assemble_matrix") == before:
                self.reuse[0] += 1
            return result
        return reusing

    def calls(self, key):
        s = self.stats.get(key)
        return s.calls if s is not None else 0
