"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so process-global state of
the program (the decision cache, the warp memo, peak RSS) never carries
over from one pass to the next.  The pass prints one JSON object as the
last line of its standard output.

Modes:

* ``timed`` — set up (import ``repro``, build every SCoP, apply every
  transform), then simulate every input once with the warping engine,
  closed loop, checking each result against the expected counts.  With
  ``--speed`` a :class:`Speedometer` samples the host's speed all
  through the pass and every wall gets a normalised wall beside it.
* ``traced`` — the same pass with :mod:`spans` wrappers installed
  before set-up; adds the span aggregates and reuse counters.
* ``ablation`` — the small rung again with the warping engine, with
  warping off and with the concrete tree engine; for the sweep also
  every point through the untraced ``simulate_point``.

Run directly: ``python3 perfbench/worker.py --workload warp-hostile
--seed 1 --mode timed`` from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: The program is imported from the ``src`` tree of the checkout that
#: holds this benchmark, never from an installed copy.
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402  (benchmark data, no repro import)
from spans import Spans  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")

#: Wall-clock limit of one simulation; a simulation over it fails.
SIM_LIMIT_S = 60.0

#: Seconds one run of the calibration loop takes on the host where the
#: benchmark was defined (2-vCPU VM, CPython 3), at its fast speed
#: level: the reference speed of normalised times.
CALIBRATION_REF_S = 0.0033
#: How a simulation's wall follows the loop's seconds: wall ~ loop ** k.
#: On the defining host, regressing log wall on log loop seconds over
#: repeated simulations gave k = 0.63 (heat-3d), 0.66-0.71 (adi), 0.73
#: (fdtd-2d), 0.80 (lu) and 0.84 (gemm), with correlation 0.91-0.96:
#: contention slows the loop more than the simulator.
SPEED_EXPONENT = 0.7
#: CPU seconds between two speed samples (``ITIMER_PROF``).
SAMPLE_EVERY_S = 0.05
#: Fewest samples a speed estimate is taken from.
MIN_SAMPLES = 9


class _Line:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int, age: int):
        self.tag = tag
        self.age = age


def _calibration_loop() -> int:
    """A fixed LRU cache model in plain Python: attribute, dict, tuple
    and closure work like the simulator's per-access code, but none of
    the program's code, so a program change cannot move it."""
    sets = [[_Line(-1, 0) for _ in range(8)] for _ in range(64)]
    lines = {}
    hits = 0
    for now in range(2500):
        block = ((now * 2654435761) & 0xFFFF) >> 5
        key = (block & 63, block >> 6)
        line = lines.get(key)
        if line is not None:
            hits += 1
            line.age = now
            continue
        victim = min(sets[block & 63], key=lambda entry: entry.age)
        lines.pop((block & 63, victim.tag), None)
        victim.tag, victim.age = block >> 6, now
        lines[key] = victim
    return hits


class Speedometer:
    """Samples the host's speed all through a pass.

    The host's speed drifts between levels about 1.6x apart in spells
    of seconds to minutes (other tenants on the same physical cores),
    and it slows the calibration loop and the simulator alike.  Every
    ``SAMPLE_EVERY_S`` of CPU time a signal handler runs the loop once
    and records how long it took, in the middle of whatever simulation
    is running.  An interval between two :meth:`mark` calls gets its
    wall without the handler's time, and that wall normalised to the
    reference speed: ``wall * (CALIBRATION_REF_S / loop) **
    SPEED_EXPONENT``, where ``loop`` is the median of the samples taken
    in the interval (widened on both sides to at least ``MIN_SAMPLES``).
    That takes the host's level out of the wall.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.running = False

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.running = False
            while len(self.samples) < MIN_SAMPLES:
                self._sample(None, None)

    def mark(self) -> tuple:
        return (time.perf_counter(), len(self.samples), self.spent)

    def interval(self, first: tuple, last: tuple):
        """(wall, normalised wall) between two marks; the normalised
        wall is None when no samples were taken."""
        wall = (last[0] - first[0]) - (last[2] - first[2])
        if not self.samples:
            return wall, None
        low, high = first[1], last[1]
        while high - low < MIN_SAMPLES and (
                low > 0 or high < len(self.samples)):
            low, high = max(0, low - 1), min(len(self.samples), high + 1)
        speed = statistics.median(self.samples[low:high])
        return wall, wall * (CALIBRATION_REF_S / speed) ** SPEED_EXPONENT


def _alarm(signum, frame):
    raise TimeoutError(f"simulation exceeded {SIM_LIMIT_S:g} s")


def make_config(cache: dict):
    """CacheConfig / HierarchyConfig of an input's geometry."""
    from repro.cache import CacheConfig, HierarchyConfig, InclusionPolicy

    geometry = [(cache["l1_size"], cache["l1_assoc"], cache["l1_policy"])]
    for level in ("l2", "l3"):
        if cache.get(f"{level}_size"):
            geometry.append((cache[f"{level}_size"],
                             cache[f"{level}_assoc"],
                             cache[f"{level}_policy"]))
    levels = [CacheConfig(size, assoc, cache["block_size"], policy,
                          name=f"L{number}")
              for number, (size, assoc, policy) in enumerate(geometry, 1)]
    if len(levels) == 1:
        return levels[0]
    return HierarchyConfig(
        levels=tuple(levels),
        inclusion=InclusionPolicy.parse(cache.get("inclusion", "nine")))


def result_signature(result) -> dict:
    """Counts of a SimulationResult that must not depend on tracing."""
    return {
        "accesses": result.accesses,
        "explicit": result.simulated_accesses,
        "warps": result.warp_count,
        "attempts": result.warp_attempts,
        "levels": [[level.hits, level.misses] for level in result.levels],
    }


def record_signature(record: dict) -> dict:
    """The same counts, from a sweep store record."""
    payload = record["result"]
    levels = []
    number = 1
    while f"l{number}_hits" in payload:
        levels.append([payload[f"l{number}_hits"],
                       payload[f"l{number}_misses"]])
        number += 1
    return {
        "accesses": payload["accesses"],
        "explicit": payload["accesses"] - payload.get("warped_accesses", 0),
        "warps": payload.get("warps", 0),
        "attempts": payload.get("counters", {}).get("warp.attempts", 0),
        "levels": levels,
    }


def check(signature: dict, expected: dict) -> str:
    """Empty when accesses and per-level hits/misses are as expected."""
    if signature["accesses"] != expected["accesses"]:
        return (f"accesses {signature['accesses']} != expected "
                f"{expected['accesses']}")
    if signature["levels"] != expected["levels"]:
        return (f"levels {signature['levels']} != expected "
                f"{expected['levels']}")
    return ""


def sim_row(inp: dict, wall: float, signature, expected: dict,
            error: str = "") -> dict:
    if not error:
        error = check(signature, expected[inp["id"]])
    return {"id": inp["id"], "rung": inp["rung"], "wall": wall,
            "sig": signature, "error": error}


def measure(inp: dict, expected: dict, func, *args, **kwargs) -> dict:
    """Run one simulation under the time limit and check its counts.

    Any exception, the timeout included, is recorded as the row's
    error: it counts as a failed simulation, not as a crashed pass.
    """
    signal.setitimer(signal.ITIMER_REAL, SIM_LIMIT_S)
    try:
        start = time.perf_counter()
        result = func(*args, **kwargs)
        wall = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 — counted as failed
        return sim_row(inp, 0.0, None, expected,
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return sim_row(inp, wall, result_signature(result), expected)


class Pass:
    def __init__(self, workload: str, seed: int, expected: dict,
                 spans: Spans = None):
        self.workload = workload
        self.inputs = workloads.inputs(workload, seed)
        self.expected = expected
        self.spans = spans
        self.out = {}
        self.speed = Speedometer()

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Import the program, build every SCoP, apply every transform."""
        first = self.speed.mark()
        import repro  # noqa: F401  (its import is part of set-up)
        from repro import polybench, transform

        if self.spans is not None:
            self.spans.install()
        scops = {}
        for inp in self.inputs:
            key = (inp["kernel"], json.dumps(inp["size"], sort_keys=True),
                   inp["transform"])
            if key not in scops:
                scop = polybench.build_kernel(inp["kernel"], inp["size"])
                if inp["transform"]:
                    scop = transform.apply_pipeline(scop, inp["transform"])
                scops[key] = scop
            inp["scop"] = scops[key]
            inp["config"] = make_config(inp["cache"])
        if self.workload == "hierarchy-sweep":
            from repro import SweepPoint

            for inp in self.inputs:
                inp["point"] = SweepPoint(
                    kernel=inp["kernel"], size=inp["size"],
                    transform=inp["transform"], engine="warping",
                    **inp["cache"])
        self.setup_marks = (first, self.speed.mark())
        self.out["setup_s"], _ = self.speed.interval(*self.setup_marks)

    def require_cold(self) -> None:
        from repro.isl.sets import decision_cache_size

        if decision_cache_size() != 0:
            raise RuntimeError(
                "decision cache not empty before the first simulation")

    # -- timed / traced -------------------------------------------------------

    def simulate_direct(self) -> list:
        from repro import simulation

        rows = []
        first = self.speed.mark()
        for inp in self.inputs:
            row = measure(inp, self.expected, simulation.simulate_warping,
                          inp["scop"], inp["config"])
            row["marks"] = (first, self.speed.mark())
            first = row["marks"][1]
            rows.append(row)
            if self.spans is not None:
                self.spans.label_last_root(inp["id"])
        return rows

    def simulate_sweep(self) -> list:
        from repro import explore

        marks = [self.speed.mark()]

        def progress(record):
            marks.append(self.speed.mark())
            if self.spans is not None:
                self.spans.label_last_root(
                    self.inputs[len(marks) - 2]["id"])

        outcome = explore.run_sweep([inp["point"] for inp in self.inputs],
                                    store=None, workers=1,
                                    timeout=SIM_LIMIT_S, progress=progress)
        self.sweep_marks = (marks[0], self.speed.mark())
        rows = []
        by_key = {record["key"]: record for record in outcome.records}
        for number, inp in enumerate(self.inputs[:len(marks) - 1]):
            record = by_key.get(inp["point"].key(), {})
            if record.get("status") != "ok":
                row = sim_row(inp, 0.0, None, self.expected,
                              record.get("error") or "no record")
            else:
                row = sim_row(inp, 0.0, record_signature(record),
                              self.expected)
                row["point_wall"] = record["result"]["wall_time_s"]
            row["marks"] = (marks[number], marks[number + 1])
            rows.append(row)
        for inp in self.inputs[len(rows):]:
            rows.append(sim_row(inp, 0.0, None, self.expected,
                                "point not run"))
        return rows

    def run_main(self) -> None:
        from repro.isl.sets import decision_cache_size
        from repro.perf.memo import global_memo

        self.require_cold()
        if self.workload == "hierarchy-sweep":
            rows = self.simulate_sweep()
        else:
            rows = self.simulate_direct()
        # Walls from the marks, normalised once every sample is in.
        self.speed.stop()
        self.out["setup_s"], norm = self.speed.interval(*self.setup_marks)
        if norm is not None:
            self.out["setup_norm"] = norm
        for row in rows:
            if "marks" in row:
                row["wall"], norm = self.speed.interval(*row.pop("marks"))
                if norm is not None:
                    row["norm"] = norm
        if self.workload == "hierarchy-sweep":
            self.out["sim_wall"], _ = self.speed.interval(*self.sweep_marks)
        else:
            self.out["sim_wall"] = sum(row["wall"] for row in rows)
        self.out["sims"] = rows
        if self.spans is not None:
            self.spans.uninstall()
            self.out["spans"] = self.spans.totals
            self.out["roots"] = self.spans.roots
            self.out["decision_cache_size"] = decision_cache_size()
            self.out["memo"] = global_memo().stats.to_dict()

    # -- ablation -------------------------------------------------------------

    def run_ablation(self) -> None:
        from repro import Cache, CacheHierarchy, HierarchyConfig, simulation

        self.require_cold()
        sims = []
        if self.workload == "hierarchy-sweep":
            from repro.explore.runner import simulate_point

            for inp in self.inputs:
                row = measure(inp, self.expected, simulate_point,
                              inp["point"])
                row["engine"] = "point"
                sims.append(row)

        def tree(scop, config):
            target = (CacheHierarchy(config)
                      if isinstance(config, HierarchyConfig)
                      else Cache(config))
            return simulation.simulate_nonwarping(scop, target)

        engines = (
            ("warping", simulation.simulate_warping, {}),
            ("symbolic", simulation.simulate_warping,
             {"enable_warping": False}),
            ("tree", tree, {}),
        )
        for inp in self.inputs:
            if inp["rung"] != "small":
                continue
            for engine, func, kwargs in engines:
                row = measure(inp, self.expected, func, inp["scop"],
                              inp["config"], **kwargs)
                row["engine"] = engine
                sims.append(row)
        self.out["sims"] = sims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="timed",
                        choices=("timed", "traced", "ablation"))
    parser.add_argument("--speed", action="store_true",
                        help="sample the host's speed (Speedometer) and "
                             "add normalised walls")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)["inputs"]
    bench = Pass(args.workload, args.seed, expected,
                 Spans() if args.mode == "traced" else None)
    if args.speed:
        bench.speed.start()
    bench.setup()
    if args.mode == "ablation":
        bench.run_ablation()
    else:
        bench.run_main()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    bench.out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(bench.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
