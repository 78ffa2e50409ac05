"""Regenerate ``expected.json``: the counts every benchmark run checks.

For every input of every workload this runs the concrete tree engine
(``simulate_nonwarping``, Algorithm 1 of the paper) and records its
access count and per-level hits and misses.  It also runs the warping
engine once, refuses to write the file if the two disagree, and records
the warping regime of the input at definition time (warped share, warp
attempts and hits) for reference; runs do not check the regime.

The model is checked only against the tree engine: the repository
holds no hardware measurements, so no error figure against real caches
is given.

Usage, from the root of the repository (takes a few minutes, most of
it the tree engine on the large stencil rung)::

    python3 perfbench/gen_expected.py
"""

from __future__ import annotations

import json
import sys

from worker import EXPECTED, make_config
import workloads


def generate(inp: dict) -> dict:
    from repro import (Cache, CacheHierarchy, HierarchyConfig, build_kernel,
                       apply_pipeline, simulate_nonwarping,
                       simulate_warping)

    scop = build_kernel(inp["kernel"], inp["size"])
    if inp["transform"]:
        scop = apply_pipeline(scop, inp["transform"])
    config = make_config(inp["cache"])
    target = (CacheHierarchy(config) if isinstance(config, HierarchyConfig)
              else Cache(config))
    tree = simulate_nonwarping(scop, target)
    warped = simulate_warping(scop, config)
    levels = [[level.hits, level.misses] for level in tree.levels]
    if (warped.accesses != tree.accesses
            or [[lv.hits, lv.misses] for lv in warped.levels] != levels):
        raise SystemExit(f"{inp['id']}: warping engine disagrees with "
                         f"the tree engine")
    attempts = warped.warp_attempts
    return {
        "accesses": tree.accesses,
        "levels": levels,
        "regime": {
            "warped_share": round(warped.warped_accesses
                                  / max(warped.accesses, 1), 4),
            "warp_attempts": attempts,
            "warps": warped.warp_count,
            "hit_ratio": (round(warped.warp_count / attempts, 4)
                          if attempts else None),
        },
    }


def main() -> int:
    data = {"engine": "tree (simulate_nonwarping)", "inputs": {}}
    for workload in workloads.WORKLOADS:
        for inp in workloads.all_inputs(workload):
            data["inputs"][inp["id"]] = generate(inp)
            print(inp["id"], json.dumps(data["inputs"][inp["id"]]),
                  flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
