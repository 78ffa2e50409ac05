"""repro — Warping Cache Simulation of Polyhedral Programs.

A from-scratch Python reproduction of Morelli & Reineke, "Warping Cache
Simulation of Polyhedral Programs" (PLDI 2022).

Quickstart::

    from repro import CacheConfig, build_kernel, simulate_warping

    scop = build_kernel("jacobi-2d", "MINI")
    config = CacheConfig(size_bytes=32 * 1024, assoc=8, block_size=64,
                         policy="plru")
    result = simulate_warping(scop, config)
    print(result)

Package map:

* :mod:`repro.isl` — pure-Python Presburger-lite integer set library.
* :mod:`repro.cache` — policies (LRU/FIFO/PLRU/QLRU), set-associative
  caches, N-level hierarchies (NINE/inclusive/exclusive).
* :mod:`repro.polyhedral` — SCoP trees, arrays, a builder DSL.
* :mod:`repro.frontend` — mini-C parser for SCoPs (pet substitute).
* :mod:`repro.simulation` — Algorithm 1 (concrete) and Algorithm 2
  (warping symbolic) simulation.
* :mod:`repro.baselines` — Dinero-, HayStack-, PolyCache-style baselines
  and a hardware-measurement oracle.
* :mod:`repro.polybench` — the 30 PolyBench 4.2.1 kernels as SCoPs.
* :mod:`repro.analysis` — metrics and report tables.
* :mod:`repro.explore` — parallel, resumable design-space exploration
  (sweep specs, result stores, Pareto frontiers, live campaign
  monitoring via worker heartbeats and ``repro monitor``).
* :mod:`repro.transform` — polyhedral schedule transformations
  (tiling, interchange, reversal, fusion, distribution) with a
  composable pipeline grammar.
* :mod:`repro.perf` — the performance layer: set-sharded parallel
  simulation, warp-interval memoization, the ``repro bench``
  trajectory harness and its regression gate
  (``repro bench --compare``).
* :mod:`repro.obs` — observability: hierarchical span tracing, named
  counters, phase profiling (``repro profile``), typed metrics
  (counters/gauges/histograms) with Prometheus and JSONL time-series
  exporters, and the package-wide logging setup.

Design-space sweeps::

    from repro import SweepSpec, open_store, run_sweep, pareto_frontier

    spec = SweepSpec(kernels=["gemm", "atax"], sizes=["MINI"],
                     l1_sizes=[1024, 2048, 4096], l1_assocs=[4],
                     l1_policies=["lru", "plru"], block_sizes=[32])
    with open_store("campaign.jsonl") as store:
        outcome = run_sweep(spec, store=store, workers=4)
        frontier = pareto_frontier(store.ok_records())
"""

from repro import obs
from repro.obs import MetricRegistry, to_prometheus
from repro.cache import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    HierarchyConfig,
    InclusionPolicy,
    WritePolicy,
)
from repro.explore import (
    SweepOutcome,
    SweepPoint,
    SweepSpec,
    campaign_status,
    engine_deltas,
    open_store,
    pareto_frontier,
    policy_sensitivity,
    run_sweep,
)
from repro.perf import (
    WarpMemo,
    compare_payloads,
    scop_signature,
    shard_simulate,
)
from repro.polybench import build_kernel, all_kernel_names
from repro.polyhedral import ScopBuilder
from repro.simulation import (
    LevelStats,
    SimulationResult,
    simulate_nonwarping,
    simulate_warping,
)
from repro.transform import (
    Pipeline,
    TransformError,
    TransformStep,
    apply_pipeline,
    render_scop,
)

#: Single source of the package version: ``setup.py`` parses this
#: assignment and the CLI exposes it as ``repro --version``.
__version__ = "1.5.0"

__all__ = [
    "obs",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "InclusionPolicy",
    "LevelStats",
    "MetricRegistry",
    "Pipeline",
    "TransformError",
    "TransformStep",
    "WarpMemo",
    "WritePolicy",
    "ScopBuilder",
    "SimulationResult",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "apply_pipeline",
    "render_scop",
    "scop_signature",
    "shard_simulate",
    "simulate_nonwarping",
    "simulate_warping",
    "to_prometheus",
    "build_kernel",
    "all_kernel_names",
    "campaign_status",
    "compare_payloads",
    "engine_deltas",
    "open_store",
    "pareto_frontier",
    "policy_sensitivity",
    "run_sweep",
    "__version__",
]
