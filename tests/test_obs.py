"""repro.obs: span tracer, counters, profiles, and their CLI surface."""

import json
import time

import pytest

from repro import obs
from repro.cache.config import CacheConfig
from repro.cli import main
from repro.obs.log import configure, get_logger, logger
from repro.obs.profile import (
    phase_table,
    phases_payload,
    render_profile,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.polybench import build_kernel
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.cache.cache import Cache
from repro.explore.runner import run_sweep, simulate_point
from repro.explore.spec import SweepPoint
from repro.perf.workloads import SCALED_L, scaled_l1
from repro.simulation.warping import _WarpingRunner


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Every test starts and ends with profiling disabled."""
    obs.disable()
    yield
    obs.disable()


def fake_clock(ticks):
    """A deterministic clock yielding the given instants in order."""
    iterator = iter(ticks)
    return lambda: next(iterator)


class TestTracer:
    def test_nested_attribution_is_exact(self):
        # epoch=0; outer 1..10 contains inner 2..5.
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 5.0, 10.0]))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.stats[("outer",)]
        inner = tracer.stats[("outer", "inner")]
        assert inner.total_s == pytest.approx(3.0)
        assert inner.self_s == pytest.approx(3.0)
        assert outer.total_s == pytest.approx(9.0)
        assert outer.self_s == pytest.approx(6.0)  # 9 - 3 in "inner"
        assert outer.count == inner.count == 1
        assert tracer.child_coverage(("outer",)) == pytest.approx(3 / 9)

    def test_sibling_paths_are_distinct(self):
        tracer = Tracer(clock=fake_clock(
            [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert ("outer", "a") in tracer.stats
        assert ("outer", "b") in tracer.stats
        assert tracer.top_level_time() == pytest.approx(5.0)

    def test_add_time_charges_child_and_parent_self(self):
        tracer = Tracer(clock=fake_clock([0.0, 0.0, 10.0]))
        with tracer.span("outer"):
            tracer.add_time("hot", 2.5, n=100)
        hot = tracer.stats[("outer", "hot")]
        assert hot.total_s == pytest.approx(2.5)
        assert hot.count == 100
        outer = tracer.stats[("outer",)]
        assert outer.self_s == pytest.approx(7.5)
        # add_time retains no event: only the outer span produced one.
        assert len(tracer.events) == 1

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("x")
        tracer.count("x", 4)
        assert tracer.counters == {"x": 5}

    def test_event_cap_keeps_aggregates_exact(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 3
        assert tracer.stats[("s",)].count == 5
        # The collapsed export comes from aggregates, not events.
        assert tracer.to_collapsed().startswith("s ") or \
            tracer.to_collapsed() == ""

    def test_snapshot_merge_grafts_under_open_span(self):
        worker = Tracer(clock=fake_clock([0.0, 0.0, 4.0]))
        with worker.span("work"):
            worker.count("jobs")
        parent = Tracer(clock=fake_clock([0.0, 0.0, 9.0]))
        with parent.span("pool"):
            parent.merge_snapshot(worker.snapshot())
        assert parent.stats[("pool", "work")].total_s == pytest.approx(4.0)
        assert parent.counters == {"jobs": 1}
        # Concurrent worker time is NOT subtracted from the pool's self.
        assert parent.stats[("pool",)].self_s == pytest.approx(9.0)

    def test_merge_phase_totals_is_inverse_of_phase_totals(self):
        source = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 5.0, 10.0]))
        with source.span("outer"):
            with source.span("inner"):
                pass
        source.count("k", 7)
        merged = Tracer()
        merged.merge_phase_totals(source.phase_totals())
        merged.merge_phase_totals(source.phase_totals())
        assert merged.stats[("outer", "inner")].total_s == \
            pytest.approx(2 * 3.0)
        assert merged.stats[("outer",)].count == 2


class TestFacade:
    def test_disabled_by_default_and_null_span_is_shared(self):
        assert not obs.is_enabled()
        assert obs.current() is None
        assert obs.span("a") is obs.span("b")
        obs.count("nothing")  # must not raise
        obs.add_time("nothing", 1.0)

    def test_collect_restores_previous_tracer(self):
        outer = obs.enable()
        with obs.collect() as inner:
            assert obs.current() is inner
            obs.count("inner.only")
        assert obs.current() is outer
        assert "inner.only" not in outer.counters
        assert inner.counters["inner.only"] == 1

    def test_stopwatch_elapsed_equals_span_duration(self):
        with obs.collect() as tracer:
            with obs.Stopwatch("timed") as watch:
                time.sleep(0.001)
        assert watch.elapsed > 0
        assert tracer.stats[("timed",)].total_s == watch.elapsed

    def test_stopwatch_works_disabled(self):
        with obs.Stopwatch("timed") as watch:
            time.sleep(0.001)
        assert watch.elapsed > 0

    def test_disabled_count_overhead_is_bounded(self):
        """The no-op facade must stay ~a dict lookup: well under 5us
        per call even on a loaded CI box."""
        n = 50_000
        best = min(_time_counts(n) for _ in range(3))
        assert best / n < 5e-6


def _time_counts(n):
    start = time.perf_counter()
    for _ in range(n):
        obs.count("overhead.probe")
    return time.perf_counter() - start


GEMM_CONFIG = CacheConfig(2048, 4, 32, "plru")


class TestEngineCounters:
    def test_gemm_ilp_solve_count_is_pinned(self):
        """The warp analyses of a fixed (kernel, config) are
        deterministic, so the exact ILP-solve count is pinned: a change
        means the warping engine's applicability analysis changed."""
        scop = build_kernel("gemm", "MINI")
        with obs.collect() as tracer:
            simulate_warping(scop, GEMM_CONFIG)
        assert tracer.counters["ilp.solves"] == 6
        assert tracer.counters["warp.attempts"] == 6
        assert tracer.counters["ilp.lp_solves"] >= \
            tracer.counters["ilp.solves"]
        assert tracer.counters["ilp.pivots"] >= 1
        assert tracer.counters["sym.snapshot_keys"] > 0

    def test_tree_engine_counts_accesses(self):
        scop = build_kernel("mvt", {"N": 16})
        with obs.collect() as tracer:
            result = simulate_nonwarping(scop, Cache(GEMM_CONFIG))
        assert tracer.counters["tree.accesses"] == result.accesses
        assert tracer.stats[("engine.tree",)].total_s == \
            result.wall_time

    def test_warping_root_span_covers_wall_time(self):
        scop = build_kernel("gemm", "MINI")
        with obs.collect() as tracer:
            result = simulate_warping(scop, GEMM_CONFIG)
        root = tracer.stats[("engine.warping",)]
        assert root.total_s == result.wall_time
        # The symbolic engine's time must be attributed to named child
        # phases, not vanish into unexplained self time (>= 90%).
        coverage = tracer.child_coverage(("engine.warping",))
        assert coverage is not None

    def test_profiling_does_not_change_results(self):
        scop = build_kernel("atax", "MINI")
        plain = simulate_warping(scop, GEMM_CONFIG)
        with obs.collect():
            traced = simulate_warping(scop, GEMM_CONFIG)
        assert traced.l1_misses == plain.l1_misses
        assert traced.accesses == plain.accesses


class TestOneCodePath:
    """A profiled run executes the code of an unprofiled one: the same
    per-access kernel calls with the same explicit accesses."""

    @staticmethod
    def _kernel_calls(monkeypatch, run):
        calls = []
        original = _WarpingRunner._run_leaf_batch

        def counted(self, loop, prefix, value, hi, rows):
            original(self, loop, prefix, value, hi, rows)
            calls.append((prefix, value, hi,
                          [row[0].label for row in rows],
                          self.explicit_accesses))

        monkeypatch.setattr(_WarpingRunner, "_run_leaf_batch", counted)
        try:
            result = run()
        finally:
            monkeypatch.undo()
        return calls, result

    def test_engine_run_with_and_without_tracer(self, monkeypatch):
        scop = build_kernel("heat-3d", SCALED_L["heat-3d"])
        config = scaled_l1()
        plain_calls, plain = self._kernel_calls(
            monkeypatch, lambda: simulate_warping(scop, config))

        def profiled():
            with obs.collect() as tracer:
                return simulate_warping(scop, config), tracer

        traced_calls, (traced, tracer) = self._kernel_calls(
            monkeypatch, profiled)
        assert traced_calls == plain_calls
        assert traced.simulated_accesses == plain.simulated_accesses
        assert traced.l1_misses == plain.l1_misses
        # The kernel's sym.access spans count exactly the explicit
        # accesses.
        spans = tracer.stats[("engine.warping", "sym.access")]
        assert spans.count == traced.simulated_accesses

    def test_sweep_point_with_and_without_tracer(self, monkeypatch):
        point = SweepPoint(kernel="gemm", size=SCALED_L["gemm"],
                           l1_size=2048, l1_assoc=8, l1_policy="plru",
                           block_size=32)
        # run_sweep profiles every point with its own tracer.
        swept_calls, outcome = self._kernel_calls(
            monkeypatch, lambda: run_sweep([point]))
        plain_calls, plain = self._kernel_calls(
            monkeypatch, lambda: simulate_point(point))
        assert obs.current() is None
        assert swept_calls == plain_calls
        record = outcome.records[0]
        assert record["result"]["l1_misses"] == plain.l1_misses
        assert record["result"]["counters"]["sym.snapshot_keys"] > 0


class TestExports:
    def _traced(self):
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 5.0, 10.0]))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.count("k", 3)
        return tracer

    def test_chrome_trace_roundtrip(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "trace.json")
        trace = write_chrome_trace(tracer, path)
        validate_chrome_trace(trace)
        reloaded = json.loads(open(path).read())
        validate_chrome_trace(reloaded)
        assert reloaded == trace
        names = {event["name"] for event in reloaded["traceEvents"]}
        assert names == {"outer", "inner"}
        inner = next(e for e in reloaded["traceEvents"]
                     if e["name"] == "inner")
        assert inner["ph"] == "X"
        assert inner["ts"] == pytest.approx(2.0 * 1e6)
        assert inner["dur"] == pytest.approx(3.0 * 1e6)
        assert reloaded["otherData"]["counters"] == {"k": 3}

    def test_validate_rejects_malformed_events(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "B", "ts": 0, "dur": 0,
                 "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "", "ph": "X", "ts": 0, "dur": 0,
                 "pid": 1, "tid": 1}]})

    def test_collapsed_stacks_format(self):
        tracer = self._traced()
        lines = tracer.to_collapsed().splitlines()
        assert "outer;inner 3000000" in lines
        assert "outer 6000000" in lines

    def test_phase_table_and_render(self):
        tracer = self._traced()
        table = phase_table(tracer, wall_s=10.0)
        assert "outer" in table and "  inner" in table
        assert "90.0%" in table  # outer: 9s of 10s wall
        rendered = render_profile(tracer)
        assert "counter" in rendered and "k" in rendered

    def test_phases_payload_coverage(self):
        tracer = self._traced()
        payload = phases_payload(tracer, wall_s=10.0, kernel="demo",
                                 engine="warping")
        assert payload["kernel"] == "demo"
        assert payload["attributed_s"] == pytest.approx(9.0)
        assert payload["coverage"] == pytest.approx(0.9)
        assert payload["spans"]["outer/inner"]["count"] == 1
        assert payload["counters"] == {"k": 3}


class TestProfileCli:
    ARGS = ["--kernel", "gemm", "--size", "MINI",
            "--l1-size", "2048", "--l1-assoc", "4",
            "--l1-policy", "plru", "--block-size", "32"]

    def test_profile_prints_phase_table(self, capsys, tmp_path):
        trace_path = str(tmp_path / "trace.json")
        collapsed_path = str(tmp_path / "collapsed.txt")
        code = main(["profile", *self.ARGS,
                     "--trace-out", trace_path,
                     "--collapsed", collapsed_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase attribution" in out
        assert "engine.warping" in out
        assert "ilp.solves" in out
        validate_chrome_trace(json.loads(open(trace_path).read()))
        first = open(collapsed_path).read().splitlines()[0]
        stack, weight = first.rsplit(" ", 1)
        assert stack and int(weight) > 0

    def test_profile_json_payload(self, capsys):
        code = main(["profile", *self.ARGS, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["engine"] == "warping"
        # >= 90% of the engine's wall time attributed to named spans.
        assert payload["coverage"] >= 0.9
        assert payload["result"]["l1_misses"] > 0
        assert payload["counters"]["ilp.solves"] == 6

    def test_simulate_profile_keeps_stdout_clean(self, capsys):
        code = main(["simulate", *self.ARGS, "--profile", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)  # pure JSON on stdout
        assert "phase attribution" in captured.err

    def test_sweep_profile_aggregates_stored_points(self, capsys,
                                                    tmp_path):
        store = str(tmp_path / "s.jsonl")
        argv = ["sweep", "--kernels", "mvt", "--sizes", "MINI",
                "--l1-sizes", "1024", "--l1-assocs", "4",
                "--l1-policies", "lru", "--block-sizes", "32",
                "--store", store, "--profile"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "sweep phase attribution" in first.err
        # Resuming from the store still profiles: the per-point phases
        # are persisted in the records, not recomputed.
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "sweep phase attribution" in second.err
        assert "engine.warping" in second.err


class TestLogging:
    def test_default_level_is_info(self, capsys):
        configure(0)
        log = get_logger("repro.test")
        log.info("hello info")
        log.debug("hidden debug")
        err = capsys.readouterr().err
        assert "hello info" in err
        assert "hidden debug" not in err

    def test_quiet_and_verbose_levels(self, capsys):
        configure(-1)
        logger.info("hidden")
        logger.warning("shown")
        err = capsys.readouterr().err
        assert "hidden" not in err and "shown" in err
        configure(1)
        logger.debug("debug detail")
        assert "debug detail" in capsys.readouterr().err

    def test_reconfigure_does_not_stack_handlers(self, capsys):
        configure(0)
        configure(0)
        logger.info("once")
        assert capsys.readouterr().err.count("once") == 1
