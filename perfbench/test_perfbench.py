"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def declared():
    return measure.load_declared(ROOT)


class TestTail:
    def test_hundred_samples_give_p90(self):
        assert measure.tail(range(1, 101)) == (90, 90.0, 10)

    def test_forty_samples_give_p75(self):
        assert measure.tail(range(1, 41)) == (30, 75.0, 10)

    def test_order_does_not_matter(self):
        assert measure.tail(list(range(100, 0, -1))) == (90, 90.0, 10)

    def test_twenty_one_samples_is_the_lowest_tail(self):
        assert measure.tail(range(1, 22)) == (11, 100.0 * 11 / 21, 10)

    def test_too_few_samples_fall_back_to_the_median(self):
        assert measure.tail(range(1, 21)) == (10.5, 50.0, 10)
        assert measure.tail(range(1, 20)) == (10, 50.0, 9)

    def test_ties_are_not_beyond(self):
        assert measure.tail([1.0] * 30) == (1.0, 66.66666666666667, 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            measure.tail([])


class TestSelfTime:
    def test_union_of_overlapping_children(self):
        assert tracing.union_length([(1, 3), (2, 6), (8, 9)], 0, 10) == 6
        assert tracing.union_length([(1, 3), (2, 6)], 2.5, 4) == 1.5
        assert tracing.union_length([], 0, 10) == 0

    def test_children_and_leaves_are_subtracted(self):
        spans = [
            (1, None, 0, "op", 0.0, 10.0),
            (2, 1, 0, "a", 1.0, 3.0),
            (3, 1, 0, "b", 2.0, 6.0),      # overlaps a: another thread
            (4, 2, 0, "c", 1.5, 2.5),      # grandchild: only a loses it
        ]
        selfs = tracing.self_times(spans, {1: 1.0, 3: 0.5})
        assert selfs == pytest.approx({1: 4.0, 2: 1.0, 3: 3.5, 4: 1.0})

    def test_summary_charges_leaves_to_their_span(self):
        tracer = tracing.Tracer()
        frame = tracer.begin("em.mstep")
        tracer.leaf("kernels", 0.25, nbytes=8, flops=3)
        tracer.leaf("kernels", 0.25, nbytes=8, flops=3)
        tracer.end(frame)
        tracer.spans[-1] = (*tracer.spans[-1][:4], 0.0, 2.0)
        summary = tracing.summarize(tracer)
        assert summary["leaves"]["kernels"] == [2, 0.5, 16, 6]
        assert summary["leaf_by_parent"] == {"kernels<em.mstep": 2}
        assert summary["spans"]["em.mstep"]["self_s"] == pytest.approx(1.5)

    def test_parents_cross_into_pool_threads(self):
        tracer = tracing.Tracer()
        op = tracer.begin("op", op=7)
        pool_map = tracing.pool_wrapper(tracer, lambda fn, xs: [fn(x) for x in xs], lambda: 2)

        def item(x):
            frame = tracer.begin("inner")
            tracer.end(frame)
            return x

        out = []
        worker = threading.Thread(target=lambda: out.append(pool_map(item, [1, 2])))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and out == [[1, 2]]
        tracer.end(op)
        by_id = {s[0]: s for s in tracer.spans}
        items = [s for s in tracer.spans if s[3] == "parallel.item"]
        inner = [s for s in tracer.spans if s[3] == "inner"]
        assert len(items) == 2 and len(inner) == 2
        assert {by_id[s[1]][3] for s in items} == {"parallel.map"}
        assert {by_id[s[1]][3] for s in inner} == {"parallel.item"}
        # the pool thread started without an open span, so op ids come from the item
        assert {s[2] for s in items + inner} == {None}

    def test_patch_restores(self):
        import types

        module = types.ModuleType("fake")
        module.f = lambda: 1
        original = module.f
        with tracing.Patch([(module, "f", lambda fn: lambda: 2)]):
            assert module.f() == 2
        assert module.f is original

    def test_patch_refuses_a_missing_target(self):
        import types

        module = types.ModuleType("fake")
        module.f = lambda: 1
        original = module.f
        with pytest.raises(AttributeError, match="fake.gone"):
            with tracing.Patch([(module, "f", lambda fn: lambda: 2), (module, "gone", lambda fn: fn)]):
                pass
        assert module.f is original


class TestMetricNames:
    def test_end_to_end_names_match(self, declared):
        values = measure.end_to_end([1.0, 2.0], 2, 0.5, 100.0, {"mse_ratio": 0.1, "auc": 0.9})
        assert set(values) == set(declared["end_to_end"])
        measure.labelled(values, declared["end_to_end"])

    def test_per_layer_names_match(self, declared):
        values = measure.per_layer(tracing.summarize(tracing.Tracer()), [], 0.0)
        assert set(values) == set(declared["per_layer"])

    def test_undeclared_names_are_refused(self, declared):
        with pytest.raises(ValueError):
            measure.labelled({"nope": 1.0}, declared["end_to_end"])

    def test_workloads_and_spec_agree(self, declared):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        names = [w["name"] for w in bench["workloads"]]
        assert names == list(workloads.NAMES) == list(run.WORKLOADS) == list(spec["workloads"])
        assert set(spec["layer_map"]) == set(declared["per_layer"])
        assert set(spec["exact_at_seed"]) <= set(declared["per_layer"])
        assert bench["command"] == ["python3", "perfbench/run.py"]


class TestFitCheck:
    def test_good_fit_passes(self):
        assert measure.check_fit([-10.0, -5.0, -5.0], [0.0, 0.5, 1.0]) == []

    def test_decrease_beyond_roundoff_fails(self):
        assert measure.check_fit([-10.0, -5.0, -5.1], [0.5])
        assert measure.check_fit([-10.0, -5.0, -5.0 - 1e-12], [0.5]) == []

    def test_non_finite_and_bad_h_fail(self):
        assert measure.check_fit([float("nan")], [0.5])
        assert measure.check_fit([-1.0], [1.5])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.make(name, str(tmp_path))
    states = [workload.inputs(seed) for seed in (5, 5, 6)]
    try:
        assert states[0].digest == states[1].digest
        # sim_masked runs one fixed scenario, whatever the seed
        assert (states[0].digest != states[2].digest) == workload.seeded
    finally:
        for state in states:
            workload.close(state)
