"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import worker
import workloads

worker.load_engine()

from artifact import differentials, linalg, pages  # noqa: E402

TINY_CLI = ("cli", ["e2", "--dim", "4", "--max-degree", "16", "--format", "json"])
TINY_E2 = ("e2", 4, "inf", 16)
# the cheapest operation pinned in reference.json: a cold grid build at (6, 40)
PINNED_E2 = ["e2", 6, 1, 40]


@pytest.fixture
def fresh_cache():
    pages.clear_cache()
    yield
    pages.clear_cache()


def _pin(ops):
    pages.clear_cache()
    return {worker.op_key(op): worker.compute(op) for op in ops}


def test_clean_engine_matches_its_own_pins(fresh_cache):
    refs = _pin([TINY_CLI, TINY_E2])
    pages.clear_cache()
    res = worker.run_ops([TINY_CLI, TINY_E2], refs)
    assert (res["attempted"], res["failed"]) == (2, 0)


def test_perturbed_rank_is_a_failed_op(fresh_cache, monkeypatch):
    refs = _pin([TINY_CLI, TINY_E2])
    honest = differentials.LinearMap.rank
    monkeypatch.setattr(differentials.LinearMap, "rank",
                        lambda self: honest(self) + (self.source.degree == 12))
    pages.clear_cache()
    res = worker.run_ops([TINY_CLI, TINY_E2], refs)
    assert (res["attempted"], res["failed"]) == (2, 2)
    assert all("differs from the pinned reference" in e or "Error" in e
               for e in res["errors"])


def test_unpinned_op_fails():
    res = worker.run_ops([TINY_E2], {})
    assert res["failed"] == 1 and "no pinned reference" in res["errors"][0]


def test_verify_rule_is_one_way():
    ref = {"exit": 1, "checks": {"a": True, "b": False}}
    ok = {"exit": 1, "checks": {"a": True, "b": False}}
    assert worker.check(ok, ref) == (None, 1)
    fixed = {"exit": 0, "checks": {"a": True, "b": True}}
    assert worker.check(fixed, ref) == (None, 0)
    broke = {"exit": 1, "checks": {"a": False, "b": True}}
    assert worker.check(broke, ref)[0] == "check failed: a"
    new_fail = {"exit": 1, "checks": {"a": True, "b": True, "c": False}}
    assert worker.check(new_fail, ref)[0] == "check failed: c"
    missing = {"exit": 0, "checks": {"b": True}}
    assert worker.check(missing, ref)[0] == "check missing: a"
    wrong_exit = {"exit": 0, "checks": {"a": True, "b": False}}
    assert worker.check(wrong_exit, ref)[0] == "exit 0, expected 1"


def _bindings():
    """Every (module, name) in the engine bound to a traced function."""
    originals = set()
    for modname, fname, _ in tracer.TARGETS:
        originals.add(id(getattr(sys.modules["artifact." + modname], fname)))
    return {(m.__name__, attr): value
            for m in tracer.Tracer()._modules()
            for attr, value in vars(m).items() if id(value) in originals}


def test_wrappers_are_installed_and_restored(fresh_cache):
    before = _bindings()
    assert ("artifact.pages", "rank") in before  # an imported name, not a definition
    with tracer.Tracer() as t:
        assert pages.rank is linalg.rank and hasattr(pages.rank, "__wrapped__")
        assert all(getattr(sys.modules[m], a) is not v for (m, a), v in before.items())
        worker.compute(TINY_E2)
    assert _bindings() == before
    assert all(getattr(sys.modules[m], a) is v for (m, a), v in before.items())
    assert t.calls("differentials.assemble_matrix") > 0
    assert t.calls("linalg.rank") > 0
    assert t.stats["pages.e2_ranks"].calls == 1 and t.reuse == [0, 1]


def test_restored_after_an_exception(fresh_cache):
    before = _bindings()
    with pytest.raises(KeyError):
        with tracer.Tracer():
            raise KeyError("boom")
    assert _bindings() == before


def test_absent_target_is_reported_not_fatal(fresh_cache, monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("linalg", "gone_in_a_refactor", None), ("no_such_module", "f", None)))
    with tracer.Tracer() as t:
        worker.compute(TINY_E2)
    assert t.absent == ["linalg.gone_in_a_refactor", "no_such_module.f"]
    assert t.calls("e1.build_basis") > 0


def test_counter_on_a_changed_result_is_reported_not_fatal(fresh_cache, monkeypatch):
    def expects_cols(stats, args, result):
        stats.add("nnz", len(result.no_such_field))
    monkeypatch.setattr(tracer, "TARGETS",
                        (("differentials", "assemble_matrix", expects_cols),))
    with tracer.Tracer() as t:
        worker.compute(TINY_E2)
    assert t.absent == ["differentials.assemble_matrix counts"]
    assert t.calls("differentials.assemble_matrix") > 0
    assert t.stats["differentials.assemble_matrix"].counts == {}


def test_cold_ops_start_with_an_empty_cache():
    deadline = time.perf_counter() + 120
    cold = run.run_pass([[PINNED_E2], [PINNED_E2]], deadline, trace=True)
    warm = run.run_pass([[PINNED_E2, PINNED_E2]], deadline, trace=True)
    assert cold["failed"] == warm["failed"] == 0
    cold_layers, _, cold_reuse = run.merge_traces(cold["traces"])
    warm_layers, _, warm_reuse = run.merge_traces(warm["traces"])
    assembled = warm_layers["differentials.assemble_matrix"]["calls"]
    assert assembled > 0
    assert cold_layers["differentials.assemble_matrix"]["calls"] == 2 * assembled
    assert cold_reuse == [0, 2] and warm_reuse == [1, 2]


def test_cold_workloads_run_one_op_per_process():
    for name, (_, cold) in workloads.WORKLOADS.items():
        groups = run.pass_groups(name, 7)
        if cold:
            assert all(len(g) == 1 for g in groups)
        else:
            assert len(groups) == 1


def test_session_order_depends_only_on_the_seed():
    here = os.path.dirname(os.path.abspath(__file__))
    code = "import json, workloads; print(json.dumps(workloads.session_requests(11)))"
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], cwd=here, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert [tuple(x) for x in json.loads(out)] == workloads.session_requests(11)
    assert workloads.session_requests(11) != workloads.session_requests(12)
    grid = {(D, r) for D in workloads.SESSION_DEGREES for r in workloads.R_VALUES}
    for seed in range(20):
        reqs = workloads.session_requests(seed)
        assert len(reqs) == len(grid) and set(reqs) == grid
        first = [D for i, (D, _) in enumerate(reqs) if D not in [d for d, _ in reqs[:i]]]
        assert first == sorted(first)


def test_every_op_of_every_seed_is_pinned():
    refs = worker.load_references()
    for name in workloads.WORKLOADS:
        for seed in range(10):
            for op in workloads.plan(name, seed)[0]:
                assert worker.op_key(json.loads(json.dumps(op))) in refs


def test_run_refuses_a_checkout_without_the_engine(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    one_pass = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "known_fail": 0, "traces": []}
    end_to_end = run.end_to_end_metrics([one_pass], [0.1])
    per_layer, _ = run.layer_metrics(one_pass, one_pass, 0.5, 1, 0)
    for declared, printed in ((spec["end_to_end"], end_to_end), (spec["per_layer"], per_layer)):
        assert [(m["name"], m["unit"]) for m in declared] == \
            [(name, unit) for name, (_, unit) in printed.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
