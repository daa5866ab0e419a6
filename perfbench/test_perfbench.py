"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
import tracing
from workloads import (
    Relabel,
    Workload,
    check_betti,
    check_series,
    euler_defect,
    expect_report,
    load_pool,
    unit_vectors,
)

POOL = load_pool()
CHEAP_VERIFY = {"lescot-xy", "amalg-dup-x", "ex-paper-4x", "trivial-0", "trivial-1"}


@pytest.fixture
def bench(tmp_path):
    return run.Bench("formula-batch", 7, 1.0, tmp_path)


def workload(name: str, seed: int, work_dir: Path) -> Workload:
    work_dir.mkdir(parents=True, exist_ok=True)
    return Workload(name, seed, work_dir, POOL)


def inputs(workload: Workload, k: int):
    return [(op.label, op.argv[3:], Path(op.argv[2]).read_text())
            for op in workload.make_pass(k)]


@pytest.mark.parametrize("name", ["verify-small", "resolve-heavy", "formula-batch"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    a = workload(name, 11, tmp_path / "a")
    b = workload(name, 11, tmp_path / "b")
    c = workload(name, 12, tmp_path / "c")
    assert inputs(a, 0) == inputs(b, 0)
    assert inputs(a, 1) == inputs(b, 1)
    assert inputs(a, 0) != inputs(c, 0)
    assert inputs(a, 0) != inputs(a, 1)


def traced_counts(bench, ops):
    tracer = tracing.Tracer(bench.modules)
    with tracer:
        result = run.run_pass(bench.cli, ops)
    assert result.failures == []
    assert tracer.self_time_defects() == []
    return tracer.counts()


def test_same_seed_gives_identical_call_counts(bench, tmp_path):
    for name, keep in (("formula-batch", None), ("verify-small", CHEAP_VERIFY)):
        counts = []
        for sub in ("a", "b"):
            ops = workload(name, 5, tmp_path / name / sub).make_pass(0)
            counts.append(traced_counts(bench, [o for o in ops if keep is None or o.label in keep]))
        assert counts[0] == counts[1]
        assert counts[0]["cli.run.calls"] > 0
    assert counts[0]["oracle.resolve.calls"] > 0


def test_self_times_sum_to_each_root_span(bench, tmp_path):
    ops = [o for o in Workload("verify-small", 3, tmp_path, POOL).make_pass(0)
           if o.label in CHEAP_VERIFY]
    tracer = tracing.Tracer(bench.modules)
    with tracer:
        run.run_pass(bench.cli, ops)
    assert tracer.self_time_defects() == []
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.run"] * len(ops)
    for op, root in enumerate(roots):
        layers = tracer.op_layers[op]
        assert sum(v[2] for v in layers.values()) == pytest.approx(root["end"] - root["start"], abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_relabeled_scenarios_give_the_recorded_report(bench, tmp_path, seed):
    workload = Workload("verify-small", seed, tmp_path, POOL)
    ops = [o for o in workload.make_pass(0) if o.label in CHEAP_VERIFY]
    ops += [o for o in Workload("resolve-heavy", seed, tmp_path, POOL).make_pass(1)
            if o.label == "xyz-h6"]
    result = run.run_pass(bench.cli, ops)
    assert result.failures == []
    assert result.attempted == len(CHEAP_VERIFY) + 1


def test_relabeling_moves_variables():
    draws = {Relabel.draw(random.Random(s), 3) for s in range(20)}
    assert len({d.perm for d in draws}) > 1
    assert len({d.names for d in draws}) > 1
    assert {d.style for d in draws} == {"string", "array", "mixed"}


def test_wrappers_are_gone_before_untraced_timing(bench):
    assert tracing.wrapped_layers(bench.modules, bench.reference) == []
    tracer = tracing.Tracer(bench.modules)
    tracer.install()
    try:
        assert set(tracing.wrapped_layers(bench.modules, bench.reference)) == set(tracing.LAYERS)
        with pytest.raises(RuntimeError, match="still installed"):
            bench.untraced_pass([])
    finally:
        tracer.uninstall()
    assert tracing.wrapped_layers(bench.modules, bench.reference) == []
    bench.untraced_pass([])


def test_checks_reject_wrong_outputs():
    case = next(c for c in POOL["resolve"] if c["id"] == "x4-h4")
    betti = [(i, j, int(v)) for i, j, v in case["expected"]["betti"]]
    n = len(case["ideal"][0])
    assert euler_defect(n, case["ideal"], unit_vectors(n), betti, case["max_hom"]) is None
    dropped = [(i, j, v - 1 if (i, j) == (2, 2) else v) for i, j, v in betti]
    assert euler_defect(n, case["ideal"], unit_vectors(n), dropped, case["max_hom"]) == 2

    def doc(kind, result):
        return json.dumps({"schema_version": "1", "kind": kind, "result": result})

    # 1 / (1 - t) = 1 + t + t^2 + ...
    assert check_series([1], [1, -1], 3, 0, doc("series", {"series": ["1"] * 4}), "") is None
    assert check_series([1], [1, -1], 3, 0, doc("series", {"series": ["1", "1", "2", "1"]}), "")
    # a = (1, 1), b = (1, 0, -1), bound = a / b = 1 + t + t^2
    ok = doc("betti", {"bound": ["1", "1", "1"], "label": "lower bound"})
    assert check_betti([1, 0, 0], [1, 1, 0], [1, 1, 0], 2, False, 0, ok, "") is None
    bad = doc("betti", {"bound": ["1", "1", "2"], "label": "lower bound"})
    assert check_betti([1, 0, 0], [1, 1, 0], [1, 1, 0], 2, False, 0, bad, "")
    assert check_betti([1, 0, 0], [1, 1, 0], [1, 1, 0], 2, True, 0, ok, "")
    entry = POOL["verify"][0]
    good = doc("verify", entry["expected"])
    assert expect_report("verify", entry["expected"])(0, good, "") is None
    assert expect_report("verify", entry["expected"])(3, good, "")
    changed = dict(entry["expected"], relation="equal" if entry["expected"]["relation"] != "equal" else "incomparable")
    assert expect_report("verify", entry["expected"])(0, doc("verify", changed), "")


def test_tail_percentile_keeps_ten_samples_beyond():
    label, value, beyond = run.tail_percentile([float(i) for i in range(100)])
    assert (label, value, beyond) == ("p90", 89.0, 10)
    assert run.tail_percentile([1.0, 3.0, 2.0]) == ("max", 3.0, 0)
    # a run cut short keeps the percentile planned for its full length
    assert run.tail_percentile([float(i) for i in range(50)], 100) == ("p90", 44.0, 5)
