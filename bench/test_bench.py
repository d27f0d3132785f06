"""Tests of the benchmark's own code: span arithmetic, metric tables, workloads.

    python -m pytest bench -q
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from probes import PER_LAYER, layer_metrics
from run import END_TO_END
from spans import Recorder, Span, outermost, self_times, union_length
from workloads import WORKLOADS, set_key

ROOT = Path(__file__).resolve().parent.parent


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def _span(span_id, name, start, end, parent=None, **attrs):
    return Span(span_id, name, start, end, parent, "run", attrs)


def test_union_length_merges_overlaps_and_skips_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (1.5, 2.5)]) == 3
    assert union_length([(5, 6), (0, 10)]) == 10


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(1, "parent", 0.0, 10.0),
        _span(2, "a", 1.0, 3.0, parent=1),
        _span(3, "b", 2.0, 5.0, parent=1),  # overlaps a, as on a worker thread
        _span(4, "c", 9.0, 12.0, parent=1),  # ends after its parent
        _span(5, "grandchild", 1.5, 2.5, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_outermost_counts_a_layer_once_when_it_calls_itself():
    spans = [_span(1, "basis.eval", 0, 4), _span(2, "basis.eval", 1, 2, parent=1),
             _span(3, "other", 5, 8), _span(4, "basis.eval", 6, 7, parent=3)]
    assert [s.span_id for s in outermost(spans, "basis.eval")] == [1, 4]


def test_recorder_links_parents_records_errors_and_adopts_across_threads():
    rec = Recorder("r1", clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
    with rec.span("outer") as outer:
        with rec.span("inner", n=3):
            pass
        parent = rec.current()
        thread_spans = []

        def work():
            with rec.adopt(parent):
                with rec.span("threaded") as s:
                    thread_spans.append(s)
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with pytest.raises(KeyError):
            with rec.span("failing"):
                raise KeyError("x")
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == outer.span_id
    assert by_name["inner"].attrs == {"n": 3}
    assert by_name["threaded"].parent == outer.span_id
    assert by_name["failing"].attrs["error"] == "KeyError"
    assert by_name["outer"].parent is None
    assert {s.run_id for s in rec.spans} == {"r1"}
    assert by_name["outer"].start == 0.0 and by_name["outer"].end == 7.0
    dumped = json.loads(json.dumps(rec.dump()))
    assert len(dumped["spans"]) == 4


def test_layer_metrics_split_highs_time_by_caller_and_measure_overlap():
    spans = [
        _span(1, "cli.run_study", 0.0, 10.0, command="solve"),
        _span(2, "programs.solve", 1.0, 5.0, parent=1, rows=31, columns=5760,
              status="optimal"),
        _span(3, "programs.solve", 2.0, 6.0, parent=1, rows=29, columns=2880,
              status="tolerance-failure"),
        _span(4, "highs", 1.0, 3.0, parent=2, iterations=7),
        _span(5, "programs.refine", 3.0, 5.0, parent=2),
        _span(6, "highs", 3.0, 4.5, parent=5, iterations=5),
        _span(7, "cli.emit", 10.0, 10.5),
    ]
    op = {"command": "solve", "report_bytes": 123,
          "trace": {"spans": [s.__dict__ for s in spans], "counters": {}}}
    m = layer_metrics([op])
    assert set(m) == set(PER_LAYER)
    assert m["cli.solve_s"] == 10.0 and m["cli.certify_s"] == 0
    assert m["cli.self_s"] == pytest.approx((10.0 - 5.0) + 0.5)
    assert m["highs.main_s"] == 2.0 and m["highs.refine_s"] == 1.5
    assert m["highs.calls"] == 2 and m["programs.lp_iterations"] == 12
    assert m["programs.solve_calls"] == 2 and m["programs.solve_failed"] == 1
    assert m["programs.lp_rows"] == 31 and m["programs.lp_columns"] == 5760
    assert m["programs.solve_overlap"] == pytest.approx(8.0 / 5.0)


def test_benchmark_json_names_the_code_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_seed_sets_the_config_seed_and_picks_the_start_point():
    sys.path.insert(0, str(ROOT / "src"))
    from occlp.config import parse_config
    for workload in WORKLOADS.values():
        for seed in (0, 1, 7):
            config = parse_config(workload.config_text(ROOT, seed))
            assert config.seed == seed
            if workload.start_points:
                expected = workload.start_points[seed % len(workload.start_points)]
                assert config.program.y0 == expected
    box0 = parse_config(WORKLOADS["box-custom"].config_text(ROOT, 0))
    assert box0.program.y0 == (0.5, -0.5)
    lp = parse_config(WORKLOADS["lp-annulus-m"].config_text(ROOT, 3))
    assert lp.grid.state_resolution == (5, 128) and lp.basis.degree == 6
    assert lp.program.y0 == (1.0, 0.0)


def test_set_key_requires_exactly_one_line():
    assert set_key("a = 1\nb = 2\n", "b", "3") == "a = 1\nb = 3\n"
    with pytest.raises(ValueError):
        set_key("a = 1\n", "b", "3")
