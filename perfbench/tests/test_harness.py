"""Tests of the benchmark harness itself, not of the program it measures."""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs as bench_inputs
import run
import spans
import stats
from spans import Span, Tracer


# -- the percentile rule -----------------------------------------------------

def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert stats.tail(values) == ("p99", 990.0, 10)


def test_tail_never_goes_above_p99():
    # p99.9 would leave 10 beyond here; the rule stays at p99.
    values = [float(v) for v in range(1, 10_001)]
    assert stats.tail(values) == ("p99", 9900.0, 100)


def test_tail_falls_to_lower_percentile_for_fewer_samples():
    values = [float(v) for v in range(1, 51)]
    # p99/p95/p90 leave 0, 2 and 5 samples beyond; p75 (rank 38) leaves 12.
    assert stats.tail(values) == ("p75", 38.0, 12)


def test_tail_of_a_short_run_is_always_the_second_largest():
    # Runs of a few long ops: the same rank whatever the op count.
    for count in range(2, stats.MIN_SAMPLES):
        values = [float(v) for v in range(count, 0, -1)]
        assert stats.tail(values) == ("second largest", count - 1.0, 1)
    assert stats.tail([3.0]) == ("second largest", 3.0, 0)


def test_tail_counts_only_strictly_greater_samples():
    values = [1.0] * 990 + [2.0] * 10
    assert stats.tail(values) == ("p99", 1.0, 10)


def test_probe_speed_is_the_mean_of_bimodal_probes():
    fast, slow = stats.REFERENCE_PROBE_S, 1.5 * stats.REFERENCE_PROBE_S
    # The median of three fast and two slow probes would read 1.0.
    assert stats.probe_speed([fast] * 3 + [slow] * 2) == pytest.approx(1.2)


def test_reference_speed_scales_times_down_and_rates_up_on_a_slow_host():
    speed = stats.host_speed([2 * stats.REFERENCE_CALIBRATION_S] * 3)
    assert speed == 2.0
    scaled = run.at_reference_speed(
        {"op_wall_ms": 10.0, "attribution_gap": 0.5}, run.PER_LAYER, speed)
    assert scaled == {"op_wall_ms": 5.0, "attribution_gap": 0.5}


def test_each_op_gets_the_speed_of_the_calibrations_around_it():
    ref = stats.REFERENCE_CALIBRATION_S
    # Calibrated before op 0, before op 2 and after the last op (4).
    marks = [[0, ref], [2, 3 * ref], [4, 3 * ref]]
    assert stats.op_speeds(marks, 4) == pytest.approx([2.0, 2.0, 3.0, 3.0])


def test_each_op_gets_the_mean_of_the_probes_nearest_it():
    ref = stats.REFERENCE_PARSE_PROBE_S
    # Probes before ops 0, 1, 2 and 3, the last one on a slow host: op 2
    # ran between the last two.
    probes = [[0, ref], [1, ref], [2, ref], [3, 5 * ref]]
    assert stats.probe_op_speeds(probes, 4, window=2) == pytest.approx(
        [1.0, 1.0, 3.0, 3.0])
    # A window wider than the probes taken covers all of them.
    assert stats.probe_op_speeds(probes, 2, window=40) == pytest.approx(
        [2.0, 2.0])


def test_position_medians_take_each_op_over_the_passes():
    # Three passes of two ops; one pass of op 1 was slowed.
    values = [1.0, 10.0, 1.5, 90.0, 0.5, 11.0]
    assert stats.position_medians(values, 2) == [1.0, 11.0]
    with pytest.raises(ValueError):
        stats.position_medians([1.0], 2)


def test_end_to_end_scales_ops_and_set_ups_by_their_own_speeds():
    measured = {"setups": [2.0, 1.0, 3.0], "setup_speed": 2.0,
                "latencies_ms": [4.0, 8.0], "ops_per_s": 166.0,
                "scaled_ms": [2.0, 2.0], "scaled_ops_per_s": 500.0,
                "rss_mb": 70.0}
    assert run.end_to_end(measured, scaled=True) == {
        "setup_s": 1.0, "ops_per_s": 500.0, "op_p50_ms": 2.0,
        "op_p99_ms": 2.0, "peak_rss_mb": 70.0}
    assert run.end_to_end(measured, scaled=False)["op_p50_ms"] == 6.0


# -- self time -----------------------------------------------------------------

def _span(i, layer, parent, start, end, root=False):
    return Span(id=i, layer=layer, parent=parent, start=start, end=end,
                root=root)


def test_self_time_subtracts_nested_children():
    tree = [
        _span(0, "op", None, 0, 100, root=True),
        _span(1, "a", 0, 10, 60),
        _span(2, "b", 1, 20, 30),
        _span(3, "b", 1, 40, 50),
    ]
    layers, unattributed, wall, roots = spans.attribute(tree)
    assert layers == {"a": 30, "b": 20}
    assert (unattributed, wall, roots) == (50, 100, 1)


def test_overlapping_children_are_not_counted_twice():
    tree = [
        _span(0, "op", None, 0, 100, root=True),
        _span(1, "a", 0, 10, 60),
        _span(2, "b", 0, 40, 80),
    ]
    layers, unattributed, _, _ = spans.attribute(tree)
    # The root loses only the union [10, 80); each child keeps its span.
    assert unattributed == 30
    assert layers == {"a": 50, "b": 40}


def test_linked_batch_counts_once_per_request_it_served():
    tree = [
        _span(0, "request", None, 0, 100, root=True),
        _span(1, "wait", 0, 40, 90),
        _span(2, "request", None, 50, 150, root=True),
        _span(3, "wait", 2, 55, 95),
        _span(4, "eval", None, 60, 80),  # detached: ran in a batching lane
    ]
    layers, unattributed, wall, roots = spans.attribute(
        tree, links={1: [4], 3: [4]})
    assert layers == {"wait": 30 + 20, "eval": 20 + 20}
    assert (unattributed, wall, roots) == (50 + 60, 200, 2)
    assert sum(layers.values()) + unattributed == wall


def test_tracer_keeps_concurrent_tasks_apart_and_detaches_inherited_context():
    tracer = Tracer()
    lane_spans = []

    async def lane():
        span, token = tracer.open("eval")
        await asyncio.sleep(0.01)
        tracer.close(span, token)
        lane_spans.append(span)

    async def request(spawn):
        span, token = tracer.open("request", root=True)
        inner, inner_token = tracer.open("wait")
        task = asyncio.ensure_future(lane()) if spawn else None
        await asyncio.sleep(0.02)
        if task is not None:
            await task
        tracer.close(inner, inner_token)
        tracer.close(span, token)
        return span, inner

    async def main():
        return await asyncio.gather(request(True), request(False))

    (root_a, wait_a), (root_b, wait_b) = asyncio.run(main())
    assert wait_a.parent == root_a.id and wait_b.parent == root_b.id
    assert lane_spans[0].parent is None  # created inside request A's span
    layers, unattributed, wall, roots = spans.attribute(
        tracer.spans, tracer.links)
    assert roots == 2
    assert sum(layers.values()) + unattributed == wall


def test_installed_boundaries_reach_copies_imported_by_name(tmp_path):
    # Installing rewrites the program's modules, so it runs in a child.
    bench = Path(spans.__file__).resolve().parent
    script = tmp_path / "probe.py"
    script.write_text(
        "import sys\n"
        f"sys.path[:0] = {[str(bench), str(bench.parent / 'src')]!r}\n"
        "import numpy as np\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "assert spans.install(tracer) == []\n"
        "from repro.core import right_fit\n"
        "with tracer.op():\n"
        "    right_fit.pareto_front_arrays(np.array([1.0, 2.0]),"
        " np.array([2.0, 1.0]))\n"
        "layers, unattributed, wall, roots = spans.attribute(tracer.spans)\n"
        "assert roots == 1 and layers['geometry'] > 0, layers\n"
        "assert sum(layers.values()) + unattributed == wall\n"
    )
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- failure counting ----------------------------------------------------------

def test_refusals_errors_and_mismatches_all_count_as_failures():
    outcomes = stats.Outcomes()
    outcomes.status(200, matches=True, count=5)
    outcomes.status(429, matches=False)
    outcomes.status(503, matches=False, count=2)
    outcomes.status(200, matches=False)
    outcomes.status(500, matches=False)
    assert (outcomes.attempted, outcomes.failed, outcomes.refused) == (10, 5, 3)
    assert outcomes.reasons == {"http 429": 1, "http 503": 2,
                                "mismatch": 1, "http 500": 1}
    assert outcomes.ratio == 0.5


def test_score_load_checks_each_distinct_answer():
    expected = [{"throughput": 1.5, "limiting_metric": "m"}]
    good = json.dumps({"throughput": 1.5, "limiting_metric": "m",
                       "extra": 1}).encode()
    bad = json.dumps({"throughput": 1.25, "limiting_metric": "m"}).encode()
    load = {"errors": ["ConnectionResetError"], "answers": {
        (0, 200, good): 7, (0, 200, bad): 2, (0, 429, b"{}"): 1,
        (0, 503, b"{}"): 1,
    }}
    outcomes = stats.Outcomes()
    run.score_load(load, expected, outcomes)
    assert (outcomes.attempted, outcomes.failed, outcomes.refused) == (12, 5, 2)


def test_tma_answer_compares_category_and_path():
    expected = {"tma": {"main_bottleneck": "Memory", "path": ["Backend"]}}
    body = json.dumps({"tma": {"main_bottleneck": "Memory",
                               "drilldown": {"path": ["Backend"]}}}).encode()
    assert run.answer_matches(body, expected)
    assert not run.answer_matches(body.replace(b"Memory", b"Core"), expected)
    assert not run.answer_matches(b"not json", expected)


# -- seeded inputs -------------------------------------------------------------

@pytest.fixture(scope="module")
def small_experiments():
    return {seed: bench_inputs.experiment(seed, train_windows=48,
                                          test_windows=96)
            for seed in (5, 6)}


def test_same_seed_gives_identical_bodies_and_chunks(small_experiments):
    again = bench_inputs.experiment(5, train_windows=48, test_windows=96)
    first = bench_inputs.serve_bodies(small_experiments[5], seed=5)
    second = bench_inputs.serve_bodies(again, seed=5)
    assert [e["body"] for e in first] == [e["body"] for e in second]
    assert {e["kind"] for e in first} == {"estimate", "csv", "analyze"}
    assert bench_inputs.stream_input(small_experiments[5], seed=5) == (
        bench_inputs.stream_input(again, seed=5))


def test_other_seed_gives_other_inputs(small_experiments):
    bodies = bench_inputs.serve_bodies(small_experiments[5], seed=5)
    other = bench_inputs.serve_bodies(small_experiments[6], seed=6)
    assert [e["body"] for e in bodies] != [e["body"] for e in other]
    chunks = bench_inputs.stream_input(small_experiments[5], seed=5)["chunks"]
    assert chunks != bench_inputs.stream_input(
        small_experiments[6], seed=6)["chunks"]


def test_rendered_csv_parses_back_to_the_same_samples(small_experiments):
    from repro.counters.perf_parser import PerfStatParser

    run_ = next(iter(small_experiments[5].testing_runs.values()))
    records = run_.collection.samples.to_records()
    parsed = PerfStatParser().parse(bench_inputs.render_perf(records))
    assert parsed.to_records() == records


def test_request_order_is_seeded_per_connection():
    def take(seed, connection):
        order = bench_inputs.request_order(10, seed, connection)
        return [next(order) for _ in range(30)]

    assert take(1, 0) == take(1, 0)
    assert take(1, 0) != take(1, 1)
    assert sorted(take(1, 0)[:10]) == list(range(10))
