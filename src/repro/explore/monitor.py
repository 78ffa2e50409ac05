"""Live campaign monitoring: worker heartbeats over the result store.

A sweep campaign already persists every *finished* point; this module
adds the complementary live half — *what each worker is doing right
now*.  Sweep workers run a :class:`HeartbeatWriter` (a daemon thread)
that periodically writes one heartbeat record per worker into the same
JSONL/SQLite store the results land in, under reserved
``__monitor__/...`` keys (see
:data:`repro.explore.store.MONITOR_KEY_PREFIX`).  Heartbeats are
best-effort by design: a failed write never disturbs the simulation,
and a crashed worker is *visible* precisely because its heartbeat goes
stale.

Consumers read the store — no sockets, no extra daemon:

* :func:`campaign_status` — one structured snapshot: progress,
  throughput, ETA, per-worker health, stragglers, structured failure
  records.  ``repro monitor`` renders it in a loop;
  ``repro sweep --live`` renders the same data inline.
* :func:`campaign_registry` — the same facts as a typed
  :class:`~repro.obs.metrics.MetricRegistry` for the Prometheus /
  JSONL exporters in :mod:`repro.obs.export`.

>>> import tempfile, os
>>> from repro import SweepSpec, open_store, run_sweep
>>> from repro.explore.monitor import campaign_status
>>> path = os.path.join(tempfile.mkdtemp(), "campaign.jsonl")
>>> spec = SweepSpec(kernels=["mvt"], sizes=["MINI"], l1_sizes=[512],
...                  l1_assocs=[4], l1_policies=["lru"], block_sizes=[32])
>>> with open_store(path) as store:
...     outcome = run_sweep(spec, store=store, heartbeat=5.0)
>>> with open_store(path) as store:
...     status = campaign_status(store)
>>> (status["points"]["ok"], status["total"], status["complete"])
(1, 1, True)
>>> len(status["workers"]) >= 1
True
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence

from repro.explore.store import (
    MONITOR_KEY_PREFIX,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
    is_monitor_key,
    open_store,
)
from repro.obs.log import get_logger
from repro.obs.metrics import DEFAULT_BUCKETS, MetricRegistry

_LOG = get_logger("repro.explore.monitor")

#: Store key of the per-campaign metadata record.
CAMPAIGN_KEY = MONITOR_KEY_PREFIX + "campaign"
#: Store-key prefix of per-worker heartbeat records.
WORKER_KEY_PREFIX = MONITOR_KEY_PREFIX + "worker/"

#: Record statuses of the monitoring records (never ``ok``, so every
#: existing status-based filter ignores them).
STATUS_HEARTBEAT = "heartbeat"
STATUS_CAMPAIGN = "campaign"

#: A worker whose heartbeat is older than this many intervals is
#: reported as stale (likely dead or wedged).
STALE_INTERVALS = 3.0

#: Straggler detection: a worker is flagged when its current point has
#: been running longer than ``STALL_FACTOR`` times the median ok-point
#: wall time (but never less than ``MIN_STALL_S`` seconds).
STALL_FACTOR = 4.0
MIN_STALL_S = 10.0


# -- process-local worker state ----------------------------------------------

def _blank_state() -> dict:
    return {
        "worker": "",
        "pid": os.getpid(),
        "started": time.time(),
        "seq": 0,
        "done": 0,
        "failed": 0,
        "timeout": 0,
        "current_key": None,
        "current_kernel": None,
        "current_engine": None,
        "current_started": None,
        "last_wall_s": None,
        "memo": {},
        "ilp_solves": 0,
    }


#: Mutated by the sweep runner (point start/finish) and read by the
#: heartbeat thread.  Single dict per process; GIL-protected item
#: updates are all we need.
_STATE = _blank_state()

_WRITER: Optional["HeartbeatWriter"] = None


def point_started(point_dict: dict, key: str) -> None:
    """Runner hook: a worker begins simulating a point."""
    _STATE["current_key"] = key
    _STATE["current_kernel"] = point_dict.get("kernel")
    _STATE["current_engine"] = point_dict.get("engine")
    _STATE["current_started"] = time.time()


def point_finished(record: dict) -> None:
    """Runner hook: a point finished (any status); pokes the writer."""
    status = record.get("status")
    if status == STATUS_OK:
        _STATE["done"] += 1
    elif status == STATUS_TIMEOUT:
        _STATE["timeout"] += 1
    else:
        _STATE["failed"] += 1
    result = record.get("result") or {}
    if result.get("wall_s") is not None:
        _STATE["last_wall_s"] = result["wall_s"]
    elif result.get("wall_time_s") is not None:
        _STATE["last_wall_s"] = result["wall_time_s"]
    counters = result.get("counters") or {}
    _STATE["ilp_solves"] += counters.get("ilp.solves", 0)
    memo = result.get("memo") or {}
    state_memo = _STATE["memo"]
    for field in ("value_hits", "value_misses",
                  "pattern_hits", "pattern_misses"):
        state_memo[field] = state_memo.get(field, 0) + memo.get(field, 0)
    _STATE["current_key"] = None
    _STATE["current_kernel"] = None
    _STATE["current_engine"] = None
    _STATE["current_started"] = None
    writer = _WRITER
    if writer is not None:
        writer.poke()


def _rss_kb() -> Optional[int]:
    """Resident set size in KiB (current where the platform tells us,
    else the peak), ``None`` when neither source exists."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover — exotic platforms
        return None


def _cpu_s() -> float:
    times = os.times()
    return round(times.user + times.system, 3)


def _memo_hit_rate(memo: dict) -> Optional[float]:
    lookups = memo.get("value_hits", 0) + memo.get("value_misses", 0)
    if not lookups:
        return None
    return round(memo.get("value_hits", 0) / lookups, 4)


def heartbeat_record(state: dict, interval: float) -> dict:
    """Build the store record for one worker heartbeat."""
    now = time.time()
    heartbeat = {
        "worker": state["worker"],
        "pid": state["pid"],
        "ts": round(now, 3),
        "seq": state["seq"],
        "interval_s": interval,
        "uptime_s": round(now - state["started"], 3),
        "points_done": state["done"],
        "points_failed": state["failed"],
        "points_timeout": state["timeout"],
        "current_key": state["current_key"],
        "current_kernel": state["current_kernel"],
        "current_engine": state["current_engine"],
        "current_age_s": (round(now - state["current_started"], 3)
                          if state["current_started"] else None),
        "last_wall_s": state["last_wall_s"],
        "rss_kb": _rss_kb(),
        "cpu_s": _cpu_s(),
        "memo": dict(state["memo"]),
        "memo_hit_rate": _memo_hit_rate(state["memo"]),
        "ilp_solves": state["ilp_solves"],
    }
    return {
        "key": WORKER_KEY_PREFIX + str(state["worker"]),
        "status": STATUS_HEARTBEAT,
        "heartbeat": heartbeat,
    }


class HeartbeatWriter(threading.Thread):
    """Daemon thread writing this process's heartbeat every interval.

    The writer owns its *own* store handle (workers must not share file
    handles or SQLite connections across processes/threads), writes one
    record keyed by worker name (so the latest heartbeat wins on load),
    and swallows every storage error after logging it — monitoring must
    never take a campaign down.
    """

    def __init__(self, store_path: str, interval: float,
                 worker: Optional[str] = None):
        super().__init__(name="repro-heartbeat", daemon=True)
        self.store_path = store_path
        self.interval = max(0.05, float(interval))
        self._stop_event = threading.Event()
        self._poke_event = threading.Event()
        self._store: Optional[ResultStore] = None
        self._last_write = 0.0
        _STATE["worker"] = worker or f"pid{os.getpid()}"

    def poke(self) -> None:
        """Request an immediate heartbeat (e.g. a point just finished)."""
        self._poke_event.set()

    def stop(self) -> None:
        self._stop_event.set()
        self._poke_event.set()

    def run(self) -> None:
        self._write(force=True)  # announce the worker immediately
        while not self._stop_event.is_set():
            poked = self._poke_event.wait(self.interval)
            if self._stop_event.is_set():
                break
            if poked:
                self._poke_event.clear()
            self._write()
        self._write(force=True)  # final state, flushed on shutdown

    def _write(self, force: bool = False) -> None:
        now = time.time()
        # Rate-limit poke storms from sub-interval points; the final
        # write always goes through so short campaigns leave a trace.
        if not force and now - self._last_write < self.interval / 4:
            return
        _STATE["seq"] += 1
        record = heartbeat_record(_STATE, self.interval)
        try:
            if self._store is None:
                self._store = open_store(self.store_path)
            self._store.put(record)
            self._last_write = now
        except Exception as exc:  # noqa: BLE001 — best-effort telemetry
            _LOG.debug("heartbeat write failed: %s", exc)
            # Drop the handle so the next attempt reopens cleanly.
            try:
                if self._store is not None:
                    self._store.close()
            except Exception:  # noqa: BLE001
                pass
            self._store = None


def start_heartbeats(store_path: str, interval: float,
                     worker: Optional[str] = None) -> HeartbeatWriter:
    """Start (or replace) this process's heartbeat writer."""
    global _WRITER, _STATE
    stop_heartbeats()
    _STATE.clear()
    _STATE.update(_blank_state())
    writer = HeartbeatWriter(store_path, interval, worker=worker)
    _WRITER = writer
    writer.start()
    return writer


def stop_heartbeats(timeout: float = 2.0) -> None:
    """Stop the writer, waiting briefly for its final flush."""
    global _WRITER
    writer = _WRITER
    _WRITER = None
    if writer is not None:
        writer.stop()
        writer.join(timeout=timeout)


def pool_worker_init(store_path: str, interval: float) -> None:
    """``multiprocessing.Pool`` initializer for heartbeat-enabled sweeps.

    The writer is stopped (writing the worker's final state) when the
    worker process exits normally, i.e. when the pool is closed and
    joined; a poke rate-limited away after the last point would
    otherwise leave a stale ``points_done`` behind.
    """
    import multiprocessing
    from multiprocessing.util import Finalize

    start_heartbeats(store_path, interval,
                     worker=multiprocessing.current_process().name)
    Finalize(None, stop_heartbeats, exitpriority=10)


# -- campaign metadata -------------------------------------------------------

def campaign_record(total: int, pending: int, loaded: int,
                    workers: int, heartbeat_s: float) -> dict:
    """The per-campaign metadata record written at sweep start."""
    return {
        "key": CAMPAIGN_KEY,
        "status": STATUS_CAMPAIGN,
        "campaign": {
            "total": total,
            "pending": pending,
            "loaded": loaded,
            "workers": workers,
            "heartbeat_s": heartbeat_s,
            "started": round(time.time(), 3),
            "pid": os.getpid(),
        },
    }


def read_campaign(store: ResultStore) -> Optional[dict]:
    """The campaign metadata dict, or ``None`` for pre-monitor stores."""
    record = store.get(CAMPAIGN_KEY)
    if record is None:
        return None
    return record.get("campaign")


def read_heartbeats(store: ResultStore) -> List[dict]:
    """Latest heartbeat per worker, sorted by worker name."""
    beats = []
    for record in store.monitor_records():
        if record.get("status") == STATUS_HEARTBEAT:
            heartbeat = record.get("heartbeat")
            if isinstance(heartbeat, dict):
                beats.append(heartbeat)
    beats.sort(key=lambda hb: str(hb.get("worker", "")))
    return beats


# -- structured failures -----------------------------------------------------

def failure_info(exc: Optional[BaseException], kind: str, message: str,
                 tracer=None, wall_s: Optional[float] = None,
                 tail_lines: int = 10) -> dict:
    """Structured forensics for a failed or timed-out point.

    Captures what a bare status string loses: the exception type, the
    tail of the traceback, the tracer's phase/counter snapshot at death
    (where the time had gone when the point died), and the wall time
    burned.  Everything is JSON-clean for the store record.
    """
    info: Dict[str, object] = {"type": kind, "message": message}
    if wall_s is not None:
        info["wall_s"] = round(wall_s, 6)
    if exc is not None and exc.__traceback__ is not None:
        formatted = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        info["traceback"] = formatted.strip().splitlines()[-tail_lines:]
    if tracer is not None:
        info["phases"] = tracer.phase_totals()
        info["counters"] = dict(sorted(tracer.counters.items()))
    return info


def failure_records(records: Sequence[dict],
                    limit: Optional[int] = None) -> List[dict]:
    """Failed/timed-out point records, most recent last."""
    failed = [record for record in records
              if record.get("status") in (STATUS_ERROR, STATUS_TIMEOUT)
              and not is_monitor_key(record.get("key", ""))]
    if limit is not None:
        failed = failed[-limit:]
    return failed


# -- status snapshot ---------------------------------------------------------

def _median(values: Sequence[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def campaign_status(store: ResultStore,
                    now: Optional[float] = None,
                    failure_limit: int = 10) -> dict:
    """One structured snapshot of a campaign store.

    Works on live, resumed, and finished campaigns alike — everything
    is derived from the records, so monitoring a store from another
    process (or after the fact) sees exactly what the runner persisted.

    >>> import os, tempfile
    >>> from repro import SweepSpec, open_store, run_sweep
    >>> path = os.path.join(tempfile.mkdtemp(), "campaign.jsonl")
    >>> spec = SweepSpec(kernels=["mvt"], sizes=["MINI"],
    ...                  l1_sizes=[512], l1_assocs=[4],
    ...                  l1_policies=["lru"], block_sizes=[32])
    >>> with open_store(path) as store:
    ...     _ = run_sweep(spec, store=store, heartbeat=5.0)
    >>> with open_store(path) as store:
    ...     status = campaign_status(store)
    >>> (status["complete"], status["points"]["ok"],
    ...  status["workers"][0]["worker"])
    (True, 1, 'inline')
    """
    now = time.time() if now is None else now
    records = list(store.records())
    points = [r for r in records
              if not is_monitor_key(r.get("key", ""))]
    by_status = {STATUS_OK: 0, STATUS_ERROR: 0, STATUS_TIMEOUT: 0}
    ok_walls: List[float] = []
    for record in points:
        status = record.get("status")
        by_status[status] = by_status.get(status, 0) + 1
        if status == STATUS_OK:
            wall = (record.get("result") or {}).get("wall_time_s")
            if wall is not None:
                ok_walls.append(wall)

    campaign = None
    heartbeats = []
    for record in records:
        key = record.get("key", "")
        if key == CAMPAIGN_KEY:
            campaign = record.get("campaign")
        elif (is_monitor_key(key)
              and record.get("status") == STATUS_HEARTBEAT
              and isinstance(record.get("heartbeat"), dict)):
            heartbeats.append(record["heartbeat"])
    heartbeats.sort(key=lambda hb: str(hb.get("worker", "")))

    terminal = sum(by_status.values())
    total = max(campaign["total"] if campaign else terminal, terminal)
    remaining = total - terminal
    complete = remaining == 0

    elapsed = rate = eta = None
    if campaign:
        elapsed = max(0.0, now - campaign.get("started", now))
        computed = max(0, terminal - campaign.get("loaded", 0))
        if computed > 0 and elapsed > 0:
            rate = computed / elapsed
            if remaining > 0:
                eta = remaining / rate

    median_wall = _median(ok_walls)
    stall_after = max(STALL_FACTOR * median_wall
                      if median_wall else 0.0, MIN_STALL_S)

    workers = []
    stragglers = []
    for heartbeat in heartbeats:
        interval = heartbeat.get("interval_s") or 5.0
        age = max(0.0, now - heartbeat.get("ts", now))
        entry = dict(heartbeat)
        entry["age_s"] = round(age, 3)
        entry["stale"] = age > STALE_INTERVALS * max(interval, 1.0)
        current_age = heartbeat.get("current_age_s")
        if current_age is not None and not entry["stale"]:
            # The point has been running since the heartbeat was
            # written, so charge the heartbeat's age on top.
            current_age = current_age + age
            entry["current_age_s"] = round(current_age, 3)
            if current_age > stall_after:
                stragglers.append({
                    "worker": entry.get("worker"),
                    "kernel": entry.get("current_kernel"),
                    "key": entry.get("current_key"),
                    "age_s": round(current_age, 3),
                    "stall_after_s": round(stall_after, 3),
                    "median_wall_s": median_wall,
                })
        workers.append(entry)

    return {
        "store": getattr(store, "path", ""),
        "now": round(now, 3),
        "total": total,
        "done": terminal,
        "remaining": remaining,
        "complete": complete,
        "points": {
            "ok": by_status.get(STATUS_OK, 0),
            "error": by_status.get(STATUS_ERROR, 0),
            "timeout": by_status.get(STATUS_TIMEOUT, 0),
        },
        "campaign": campaign,
        "elapsed_s": round(elapsed, 3) if elapsed is not None else None,
        "rate_per_s": round(rate, 4) if rate else None,
        "eta_s": round(eta, 1) if eta else None,
        "median_wall_s": median_wall,
        "workers": workers,
        "active_workers": sum(1 for w in workers if not w["stale"]),
        "stragglers": stragglers,
        "failures": failure_records(points, limit=failure_limit),
    }


# -- metrics view ------------------------------------------------------------

def campaign_registry(store: ResultStore,
                      status: Optional[dict] = None) -> MetricRegistry:
    """A :class:`MetricRegistry` over a campaign store.

    The registry carries campaign progress (counters by status), the
    per-point wall-time histogram, aggregated engine counters
    (``ilp.solves`` and friends), warp-memo reuse, and per-worker
    health gauges from the heartbeats — ready for
    :func:`repro.obs.export.to_prometheus` /
    :func:`repro.obs.export.append_series`.
    """
    if status is None:
        status = campaign_status(store)
    registry = MetricRegistry()

    points = registry.counter(
        "repro_points_total",
        "Terminal sweep points by status.", ("status",))
    for name, value in status["points"].items():
        points.labels(status=name).inc(value)

    info = registry.gauge("repro_campaign_points",
                          "Campaign size by state.", ("state",))
    info.labels(state="total").set(status["total"])
    info.labels(state="remaining").set(status["remaining"])

    wall = registry.histogram(
        "repro_point_wall_seconds",
        "Per-point simulation wall time.", buckets=DEFAULT_BUCKETS)
    counters_sum: Dict[str, int] = {}
    memo_sum: Dict[str, int] = {}
    for record in store.ok_records():
        result = record.get("result") or {}
        if result.get("wall_time_s") is not None:
            wall.labels().observe(result["wall_time_s"])
        for name, value in (result.get("counters") or {}).items():
            counters_sum[name] = counters_sum.get(name, 0) + value
        for name, value in (result.get("memo") or {}).items():
            if isinstance(value, int):
                memo_sum[name] = memo_sum.get(name, 0) + value
    registry.ingest_counters(counters_sum, prefix="repro_",
                             suffix="_total")

    memo = registry.counter("repro_memo_total",
                            "Warp-memo lookups by outcome.", ("outcome",))
    for name in ("value_hits", "value_misses",
                 "pattern_hits", "pattern_misses"):
        memo.labels(outcome=name).inc(memo_sum.get(name, 0))

    worker_rss = registry.gauge("repro_worker_rss_kbytes",
                                "Worker resident set size.", ("worker",))
    worker_cpu = registry.gauge("repro_worker_cpu_seconds",
                                "Worker CPU time (user+sys).", ("worker",))
    worker_points = registry.gauge(
        "repro_worker_points", "Per-worker terminal points.",
        ("worker", "status"))
    worker_up = registry.gauge(
        "repro_worker_up", "1 while the worker heartbeat is fresh.",
        ("worker",))
    for heartbeat in status["workers"]:
        name = str(heartbeat.get("worker", "?"))
        if heartbeat.get("rss_kb") is not None:
            worker_rss.labels(worker=name).set(heartbeat["rss_kb"])
        if heartbeat.get("cpu_s") is not None:
            worker_cpu.labels(worker=name).set(heartbeat["cpu_s"])
        worker_points.labels(worker=name, status="ok").set(
            heartbeat.get("points_done", 0))
        worker_points.labels(worker=name, status="error").set(
            heartbeat.get("points_failed", 0))
        worker_points.labels(worker=name, status="timeout").set(
            heartbeat.get("points_timeout", 0))
        worker_up.labels(worker=name).set(
            0 if heartbeat.get("stale") else 1)
    return registry


# -- live inline progress ----------------------------------------------------

class LiveProgress:
    """Inline progress renderer for ``repro sweep --live``.

    Called with every fresh record (the runner's ``progress`` hook);
    renders a single updating line on TTYs and rate-limited full lines
    otherwise (CI logs), always through *stderr* so ``--json`` stdout
    stays machine-readable.
    """

    def __init__(self, total: int, loaded: int, stream=None,
                 min_interval: float = 0.5):
        import sys

        self.total = total
        self.loaded = loaded
        self.done = 0
        self.errors = 0
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.started = time.monotonic()
        self._last_render = 0.0
        self._is_tty = bool(getattr(self.stream, "isatty",
                                    lambda: False)())
        self._dirty = False

    def update(self, record: dict) -> None:
        self.done += 1
        if record.get("status") != STATUS_OK:
            self.errors += 1
        self._dirty = True
        now = time.monotonic()
        final = self.loaded + self.done >= self.total
        if final or now - self._last_render >= self.min_interval:
            self._render(now)

    def _render(self, now: float) -> None:
        elapsed = max(1e-9, now - self.started)
        rate = self.done / elapsed
        remaining = max(0, self.total - self.loaded - self.done)
        eta = remaining / rate if rate > 0 else float("inf")
        line = (f"sweep {self.loaded + self.done}/{self.total} "
                f"({self.loaded} loaded) errors={self.errors} "
                f"{rate:.2f}/s eta {eta:.0f}s")
        if self._is_tty:
            self.stream.write("\r\x1b[2K" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._last_render = now
        self._dirty = False

    def close(self) -> None:
        if self._dirty:
            self._render(time.monotonic())
        if self._is_tty:
            self.stream.write("\n")
            self.stream.flush()


def monitor_json(status: dict) -> str:
    """The ``repro monitor --json`` payload (stable, sorted keys)."""
    return json.dumps(status, indent=2, sort_keys=True)
