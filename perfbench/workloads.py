"""Benchmark inputs: the three workloads and their seeded input order.

Everything here is plain data, so the benchmark can list and permute
its inputs without importing ``repro`` (whose import time belongs to
the measured set-up).  Problem sizes and cache geometries are pinned
here rather than read from ``repro.perf.workloads``: the benchmark owns
its inputs, and a program change that moves a size would otherwise
silently change what is measured.

An input is a dict with

* ``id`` — stable name, the key of its expected counts;
* ``kernel``, ``size`` (parameter dict), ``transform`` (pipeline spec,
  ``""`` for the original schedule);
* ``cache`` — the geometry as :class:`repro.SweepPoint` fields;
* ``rung`` — ``"small"``/``"large"`` for inputs on the workload's size
  ladder (``time_growth`` = large wall / small wall), else ``None``.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: The scaled test-system L1: 2 KiB, 8-way, 32 B blocks, Pseudo-LRU.
L1 = dict(l1_size=2048, l1_assoc=8, l1_policy="plru", block_size=32)

#: L2 and L3 of the scaled three-level hierarchy (both QLRU).
L2_L3 = dict(l2_size=16 * 1024, l2_assoc=16, l2_policy="qlru",
             l3_size=128 * 1024, l3_assoc=16, l3_policy="qlru")

SCALED_L: Dict[str, Dict[str, int]] = {
    "2mm": dict(NI=16, NJ=18, NK=22, NL=24),
    "atax": dict(M=40, N=40),
    "gemm": dict(NI=20, NJ=24, NK=28),
    "heat-3d": dict(TSTEPS=4, N=24),
    "jacobi-2d": dict(TSTEPS=8, N=32),
    "lu": dict(N=40),
    "mvt": dict(N=40),
    "trisolv": dict(N=80),
}

SCALED_XL: Dict[str, Dict[str, int]] = {
    "2mm": dict(NI=28, NJ=32, NK=36, NL=40),
    "adi": dict(TSTEPS=16, N=64),
    "atax": dict(M=72, N=72),
    "fdtd-2d": dict(TMAX=16, NX=48, NY=64),
    "gemm": dict(NI=36, NJ=40, NK=44),
    "heat-3d": dict(TSTEPS=6, N=28),
    "jacobi-1d": dict(TSTEPS=40, N=128),
    "jacobi-2d": dict(TSTEPS=16, N=64),
    "lu": dict(N=64),
    "mvt": dict(N=72),
    "seidel-2d": dict(TSTEPS=16, N=64),
    "trisolv": dict(N=144),
}

STENCILS = ["jacobi-1d", "jacobi-2d", "seidel-2d", "fdtd-2d", "adi"]
HOSTILE = ["gemm", "2mm", "atax", "mvt", "trisolv", "lu", "heat-3d"]

#: Programs of the hierarchy sweep: (kernel, transform).
SWEEP_PROGRAMS = [("jacobi-2d", ""), ("gemm", ""), ("lu", ""),
                  ("mvt", ""), ("mvt", "tile(i,j:8x8)")]
#: Depth-1 L1 capacities of the sweep.
SWEEP_L1_SIZES = [1024, 2048, 4096]
#: Depth-3 (inclusion, L1 policy) combinations: every inclusion policy
#: and both L1 policies appear, at three points per program instead of
#: six so that three passes fit in one run.
SWEEP_DEPTH3 = [("nine", "plru"), ("inclusive", "lru"),
                ("exclusive", "plru")]


def _scaled(params: Dict[str, int], factor: float) -> Dict[str, int]:
    return {name: int(value * factor) for name, value in params.items()}


def _input(kernel, size, rung, cache=L1, transform="", tag="") -> dict:
    label = kernel + (f"+{transform}" if transform else "")
    return {
        "id": f"{label}/{tag}",
        "kernel": kernel,
        "size": dict(size),
        "transform": transform,
        "cache": dict(cache),
        "rung": rung,
    }


def _stencils() -> List[dict]:
    # Small rung SCALED_XL; large rung doubles every time and space
    # parameter (~8x accesses on the 2-D stencils, 4x on jacobi-1d).
    inputs = []
    for kernel in STENCILS:
        inputs.append(_input(kernel, SCALED_XL[kernel], "small", tag="XL"))
        inputs.append(_input(kernel, _scaled(SCALED_XL[kernel], 2),
                             "large", tag="XLx2"))
    return inputs


def _hostile() -> List[dict]:
    inputs = []
    for kernel in HOSTILE:
        inputs.append(_input(kernel, SCALED_L[kernel], "small", tag="L"))
        inputs.append(_input(kernel, SCALED_XL[kernel], "large", tag="XL"))
    return inputs


def _sweep() -> List[dict]:
    inputs = []
    for kernel, transform in SWEEP_PROGRAMS:
        full = SCALED_L[kernel]
        half = _scaled(full, 0.5)
        for l1_size in SWEEP_L1_SIZES:
            cache = dict(L1, l1_size=l1_size)
            inputs.append(_input(kernel, full, "large", cache, transform,
                                 f"L/d1-{l1_size}"))
            inputs.append(_input(kernel, half, "small", cache, transform,
                                 f"L/2/d1-{l1_size}"))
        for inclusion, policy in SWEEP_DEPTH3:
            cache = dict(L1, l1_policy=policy, inclusion=inclusion, **L2_L3)
            inputs.append(_input(kernel, full, None, cache, transform,
                                 f"L/d3-{inclusion}-{policy}"))
    return inputs


_BUILDERS = {
    "warp-stencils": _stencils,
    "warp-hostile": _hostile,
    "hierarchy-sweep": _sweep,
}

WORKLOADS = tuple(_BUILDERS)


def all_inputs(workload: str) -> List[dict]:
    """The workload's inputs in definition order."""
    return _BUILDERS[workload]()


def inputs(workload: str, seed: int) -> List[dict]:
    """The workload's inputs in the order ``seed`` selects.

    The seed only permutes; the set of inputs is fixed, so every seed
    is checked against the same expected counts.  Order matters for
    cross-point reuse (decision cache, warp memo) in the sweep.
    """
    ordered = all_inputs(workload)
    random.Random(seed).shuffle(ordered)
    return ordered
