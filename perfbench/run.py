"""Benchmark of the warping cache simulator: one workload, one run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload warp-stencils --seed 1 \\
        --seconds 40 --trace 0

A run starts ``worker.py`` once per pass, each in a fresh interpreter,
one after the other (closed loop, no pool).  Every pass sets up the
workload and simulates each of its inputs once; every result is checked
against ``expected.json``.

``--trace 0`` repeats timed passes until ``--seconds`` would be
exceeded (at least three) and reports the end-to-end metrics from each
input's median normalised wall over the passes and the median
normalised set-up time.  A normalised time is the host time scaled by
the speed of a calibration loop sampled while it ran
(``worker.Speedometer``), so the host's drifting speed level does not
show in the metrics.
``--trace 1`` runs pairs of timed and traced passes plus one ablation
pass, checks that the traced counts equal the timed ones, and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, the seed and the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")

#: Timed passes per run, at least, so that set-up has a median.
MIN_PASSES = 3
#: No pass starts that could end later than this after the run began.
HARD_LIMIT_S = 165.0

END_TO_END = [
    ("accesses_per_s", "accesses/s"),
    ("slowest_sim_s", "s"),
    ("time_growth", "ratio"),
    ("points_per_s", "points/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("warping.match_keys", "count"),
    ("warping.match_key_s", "s"),
    ("warping.rotations", "count"),
    ("warping.rotation_s", "s"),
    ("warping.warped_share", "ratio"),
    ("warping.attempts", "count"),
    ("warping.hits", "count"),
    ("warping.hit_ratio", "ratio"),
    ("isl.queries", "count"),
    ("isl.query_s", "s"),
    ("ilp.solves", "count"),
    ("ilp.solve_s", "s"),
    ("warping.engine_s", "s"),
    ("warping.engine_self_s", "s"),
    ("symbolic.explicit_accesses", "count"),
    ("symbolic.accesses_per_s", "accesses/s"),
    ("tree.accesses_per_s", "accesses/s"),
    ("split.symbolic_over_tree", "ratio"),
    ("split.warping_over_symbolic", "ratio"),
    ("isl.cache_entries_added", "count"),
    ("isl.cache_hit_ratio", "ratio"),
    ("memo.value_hit_ratio", "ratio"),
    ("memo.pattern_hit_ratio", "ratio"),
    ("explore.points", "count"),
    ("explore.failed_points", "count"),
    ("explore.point_sim_s", "s"),
    ("explore.overhead_s", "s"),
    ("explore.trace_tax", "ratio"),
    ("polybench.build_s", "s"),
    ("polybench.builds", "count"),
    ("transform.apply_s", "s"),
    ("transform.applies", "count"),
    ("trace.overhead", "ratio"),
]


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is 0 (the layer did no such work)."""
    return num / den if den else 0.0


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.inputs = len(workloads.all_inputs(args.workload))
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, mode: str, *extra: str):
        """One pass; its JSON, or None if it crashed or timed out."""
        args = self.args
        cmd = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode, *extra]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.fail_pass(mode, "pass timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail_pass(mode, f"exit {proc.returncode}: {tail[0]}")
            return None
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        for sim in data["sims"]:
            self.attempted += 1
            if sim["error"]:
                self.failed += 1
                self.errors.append(f"{mode} {sim['id']}: {sim['error']}")
        return data

    def fail_pass(self, mode: str, detail: str) -> None:
        self.attempted += self.inputs
        self.failed += self.inputs
        self.errors.append(f"{mode} pass failed: {detail}")

    def compare_counts(self, timed: dict, traced: dict) -> None:
        """The traced pass must reproduce the timed pass's counts."""
        expected = {sim["id"]: sim["sig"] for sim in timed["sims"]}
        for sim in traced["sims"]:
            if sim["sig"] is not None and sim["sig"] != expected[sim["id"]]:
                self.failed += 1
                self.errors.append(
                    f"traced {sim['id']}: counts {sim['sig']} differ from "
                    f"the timed pass {expected[sim['id']]}")

    def room_for(self, durations) -> bool:
        return self.elapsed() + max(durations) <= min(self.args.seconds,
                                                      HARD_LIMIT_S)


def norm_wall(row: dict) -> float:
    """A simulation's wall at the reference speed (worker.normalise)."""
    return row.get("norm", row["wall"])


def end_to_end(passes: list) -> dict:
    """End-to-end metrics of a run from each input's median normalised
    wall over the passes.  Normalising by the calibration loop sampled
    during each simulation takes out the host's speed level, which
    drifts within passes and between runs."""
    first = passes[0]["sims"]
    walls = {sim["id"]: statistics.median(
        norm_wall(row) for data in passes for row in data["sims"]
        if row["id"] == sim["id"]) for sim in first}
    ok = [sim for sim in first if not sim["error"]]
    total = sum(walls[sim["id"]] for sim in ok)

    def rung_wall(rung):
        return sum(walls[sim["id"]] for sim in ok if sim["rung"] == rung)

    return {
        "accesses_per_s": ratio(sum(sim["sig"]["accesses"] for sim in ok),
                                total),
        "slowest_sim_s": max(walls.values()),
        "time_growth": ratio(rung_wall("large"), rung_wall("small")),
        "points_per_s": ratio(len(ok), total),
        "setup_s": statistics.median(data["setup_norm"] for data in passes),
        "peak_rss_mb": statistics.median(data["peak_rss_mb"]
                                         for data in passes),
    }


def per_layer(timed: dict, traced: dict, ablation: dict) -> dict:
    spans = traced["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def span_time(*names):
        return sum(spans.get(name, [0, 0.0, 0.0])[1] for name in names)

    sigs = [sim["sig"] for sim in traced["sims"] if sim["sig"]]
    accesses = sum(sig["accesses"] for sig in sigs)
    explicit = sum(sig["explicit"] for sig in sigs)
    attempts = sum(sig["attempts"] for sig in sigs)
    hits = sum(sig["warps"] for sig in sigs)
    queries = calls("isl.query")
    added = traced["decision_cache_size"]
    memo = traced["memo"]

    def engine(name):
        rows = [sim for sim in ablation["sims"]
                if sim["engine"] == name and sim["sig"]]
        return (sum(row["sig"]["accesses"] for row in rows),
                sum(row["wall"] for row in rows))

    sym_acc, sym_wall = engine("symbolic")
    tree_acc, tree_wall = engine("tree")
    _, warp_wall = engine("warping")
    _, point_wall = engine("point")
    sweep = [sim for sim in timed["sims"] if "point_wall" in sim]
    point_sim = sum(sim["point_wall"] for sim in sweep)
    return {
        "warping.match_keys": calls("warping.match_key"),
        "warping.match_key_s": span_time("warping.match_key"),
        "warping.rotations": calls("warping.rotation"),
        "warping.rotation_s": span_time("warping.rotation"),
        "warping.warped_share": ratio(accesses - explicit, accesses),
        "warping.attempts": attempts,
        "warping.hits": hits,
        "warping.hit_ratio": ratio(hits, attempts),
        "isl.queries": queries,
        "isl.query_s": span_time("isl.query", "isl.union"),
        "ilp.solves": calls("ilp.solve"),
        "ilp.solve_s": span_time("ilp.solve"),
        "warping.engine_s": span_time("warping.engine"),
        "warping.engine_self_s": spans.get("warping.engine",
                                           [0, 0.0, 0.0])[2],
        "symbolic.explicit_accesses": explicit,
        "symbolic.accesses_per_s": ratio(sym_acc, sym_wall),
        "tree.accesses_per_s": ratio(tree_acc, tree_wall),
        "split.symbolic_over_tree": ratio(tree_wall, sym_wall),
        "split.warping_over_symbolic": ratio(sym_wall, warp_wall),
        "isl.cache_entries_added": added,
        "isl.cache_hit_ratio": (1.0 - added / queries) if queries else 0.0,
        "memo.value_hit_ratio": ratio(
            memo["value_hits"], memo["value_hits"] + memo["value_misses"]),
        "memo.pattern_hit_ratio": ratio(
            memo["pattern_hits"],
            memo["pattern_hits"] + memo["pattern_misses"]),
        "explore.points": len(sweep),
        "explore.failed_points": sum(1 for sim in timed["sims"]
                                     if sim["error"]) if sweep else 0,
        "explore.point_sim_s": point_sim,
        "explore.overhead_s": timed["sim_wall"] - point_sim if sweep else 0.0,
        "explore.trace_tax": ratio(sum(sim["wall"] for sim in sweep),
                                   point_wall),
        "polybench.build_s": span_time("polybench.build"),
        "polybench.builds": calls("polybench.build"),
        "transform.apply_s": span_time("transform.apply"),
        "transform.applies": calls("transform.apply"),
        "trace.overhead": ratio(traced["sim_wall"], timed["sim_wall"]),
    }


def medians(rows: list) -> dict:
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def show(metrics, rows, units) -> None:
    print(f"{'metric':<30} {'unit':<11} {'value':>14} {'q1':>14} "
          f"{'q3':>14}   (q1/q3 over passes or pairs)")
    for name, unit in units:
        values = [row[name] for row in rows]
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else values * 3)
        print(f"{name:<30} {unit:<11} {metrics[name]:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g}")


def show_inputs(passes: list) -> None:
    """Per input: mean host wall and median normalised wall over the
    passes, with its warping regime."""
    print(f"{'input':<44} {'accesses':>10} {'wall_s':>9} {'norm_s':>9} "
          f"{'warped':>7} {'warps':>6} {'tries':>6}")
    for sim in passes[0]["sims"]:
        rows = [row for data in passes for row in data["sims"]
                if row["id"] == sim["id"]]
        sig = sim["sig"] or {"accesses": 0, "explicit": 0, "warps": 0,
                             "attempts": 0}
        warped = ratio(sig["accesses"] - sig["explicit"], sig["accesses"])
        print(f"{sim['id']:<44} {sig['accesses']:>10} "
              f"{statistics.fmean(row['wall'] for row in rows):>9.4f} "
              f"{statistics.median(norm_wall(row) for row in rows):>9.4f} "
              f"{warped:>7.3f} {sig['warps']:>6} {sig['attempts']:>6}")


def show_roots(traced: dict) -> None:
    """Span aggregates per simulation (one span id each)."""
    print("spans per simulation: calls/time_s of each span name "
          "(set-up spans not shown)")
    for number, root in enumerate(traced["roots"]):
        if root["input"] is None:
            continue
        cells = " ".join(f"{name}={row[0]}/{row[1]:.4f}"
                         for name, row in sorted(root["spans"].items()))
        print(f"  [{number}] {root['input'] or root['root']}: {cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2

    run = Run(args)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace == 0:
        passes, durations = [], []
        while True:
            began = time.perf_counter()
            data = run.worker("timed", "--speed")
            durations.append(time.perf_counter() - began)
            if data is not None:
                passes.append(data)
            elif not passes:
                break
            if len(passes) >= MIN_PASSES and not run.room_for(durations):
                break
            if run.elapsed() + max(durations) > HARD_LIMIT_S:
                break
        if not passes:
            print("\n".join(run.errors), file=sys.stderr)
            return 1
        metrics = end_to_end(passes)
        rows = [end_to_end([data]) for data in passes]
        units = END_TO_END
        print(f"passes {len(passes)} (one fresh interpreter each); "
              f"median normalised wall per input over passes, median "
              f"set-up and RSS")
        show_inputs(passes)
    else:
        pairs, durations = [], []
        ablation = None
        while True:
            began = time.perf_counter()
            timed = run.worker("timed")
            traced = run.worker("traced")
            durations.append(time.perf_counter() - began)
            if timed is None or traced is None:
                break
            if ablation is None:
                ablation = run.worker("ablation")
                if ablation is None:
                    break
            run.compare_counts(timed, traced)
            pairs.append((timed, traced))
            if not run.room_for(durations):
                break
        if not pairs or ablation is None:
            print("\n".join(run.errors), file=sys.stderr)
            return 1
        rows = [per_layer(timed, traced, ablation)
                for timed, traced in pairs]
        metrics = medians(rows)
        units = PER_LAYER
        print(f"timed/traced pairs {len(pairs)}, one ablation pass; "
              f"median over pairs")
        show_inputs([timed for timed, _ in pairs])
        show_roots(pairs[0][1])
    show(metrics, rows, units)
    print(f"{'failed_share':<30} {'ratio':<11} "
          f"{ratio(run.failed, run.attempted):>14.6g}   "
          f"({run.failed} of {run.attempted} simulations)")
    for error in run.errors[:20]:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
