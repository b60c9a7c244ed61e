"""The benchmark's three workloads, run in-process on generated inputs.

Each workload is a class with ``setup()`` (paid before the first timed
operation and reported as ``setup_s``), ``job(traced)`` (one timed unit
of work, returning a :class:`JobResult`) and ``summary(jobs)`` (the
end-to-end readings). The workload seed only offsets published seeds
and shapes the request schedule; the program sees nothing but the
generated configs and requests.

Why these three (see ``perfbench/README.md`` for the layer map):

* ``paper_suite`` -- every driver of the CLI's ``all`` set at its default
  config, one closed-loop job at a time: what a reproduction user runs.
* ``plan_serve`` -- open-loop Poisson traffic into ``PlanService.handle``:
  the only workload that exercises the batcher, the cache tiers and the
  plan store.
* ``fleet_campaign`` -- a capture-arbitrated fleet campaign on two pool
  workers: the only workload where the runner's process pool runs.
"""

import asyncio
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench import host, layers, stats

SCRATCH_DIR = ".perfbench_out"
"""Run outputs (traces, the plan store) live here, inside the checkout."""


@dataclass
class JobResult:
    """One timed job: its wall, its operations and what went wrong."""

    wall_s: float
    attempted: int
    failed: int
    digest: str
    counts: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    obs: Any = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program() -> None:
    """Load what every CLI entry point loads (``python -m repro.experiments``).

    All three workloads start from the CLI's import state. It matters
    beyond set-up time: the fleet campaign forks a fresh pool on every
    map call, and forked workers inherit the parent's imports, so a
    parent without them runs the same campaign about 1.7x slower.
    """
    import repro.experiments.cli  # noqa: F401


def _offset_seeds(config: Any, seed: int) -> Any:
    """``config`` with every (nested) dataclass ``seed`` field offset."""
    if seed == 0 or not dataclasses.is_dataclass(config):
        return config
    changes = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "seed" and isinstance(value, int):
            changes["seed"] = value + seed
        elif dataclasses.is_dataclass(value):
            changes[f.name] = _offset_seeds(value, seed)
    return dataclasses.replace(config, **changes) if changes else config


# ---------------------------------------------------------------------------
# paper_suite


class PaperSuite:
    """Every CLI driver at its default config, plan cache cleared first."""

    name = "paper_suite"

    def __init__(self, seed: int, pins: Dict[str, Any]):
        self.seed = seed
        self.pinned = pins["paper_suite_digests"] if seed == 0 else None
        self.speed = host.HostSpeed()

    def setup(self) -> None:
        import importlib

        import_program()
        from repro.experiments import cli
        from repro.runtime.cache import get_plan_cache

        drivers = layers.EXPERIMENT_DRIVERS
        if set(cli.EXPERIMENTS) != set(drivers):
            raise RuntimeError(
                "the CLI's experiment set changed: "
                f"{sorted(set(cli.EXPERIMENTS) ^ set(drivers))}"
            )
        self._cli = cli
        self._cache = get_plan_cache()
        self.drivers = []
        for name in sorted(drivers):
            module = importlib.import_module(f"repro.experiments.{drivers[name]}")
            self.drivers.append((name, module, self._config(module)))

    def _config(self, module) -> Any:
        """The driver's own ``*Config`` at its defaults, seeds offset."""
        for attr in dir(module):
            cls = getattr(module, attr)
            if (
                attr.endswith("Config")
                and isinstance(cls, type)
                and cls.__module__ == module.__name__
            ):
                return _offset_seeds(cls(), self.seed)
        return None

    def _run_driver(self, module, config) -> List[Any]:
        if module.__name__.endswith(".ablations"):
            return [
                module.beamsteering_across_media(config),
                module.equal_power_scaling(config),
                module.flatness_violation(config),
                module.two_stage_conduction(config),
                module.plan_quality(config),
            ]
        result = module.run() if config is None else module.run(config)
        return self._cli._tables_of(result)

    def job(self, traced: bool) -> JobResult:
        from repro.obs.context import obs_context

        self._cache.clear()
        digests: Dict[str, str] = {}
        driver_s: Dict[str, float] = {}
        problems: List[str] = []
        began = time.perf_counter()
        self.speed.sample()
        with obs_context() as obs:
            for name, module, config in self.drivers:
                start = time.perf_counter()
                try:
                    if traced:
                        with layers.span_record(f"experiments.{name}"):
                            tables = self._run_driver(module, config)
                    else:
                        tables = self._run_driver(module, config)
                    rendered = "\n\n".join(
                        t.render() if hasattr(t, "render") else str(t)
                        for t in tables
                    )
                    digests[name] = _sha(rendered)
                except Exception as exc:  # a failed figure is a failed op
                    digests[name] = "error"
                    problems.append(f"{name}: {type(exc).__name__}: {exc}")
                driver_s[name] = time.perf_counter() - start
                self.speed.sample()
        wall = time.perf_counter() - began
        failed = sum(1 for d in digests.values() if d == "error")
        if self.pinned is not None:
            for name, digest in digests.items():
                if digest != "error" and digest != self.pinned.get(name):
                    failed += 1
                    problems.append(f"{name}: tables differ from the pin")
        return JobResult(
            wall_s=wall,
            attempted=len(digests),
            failed=failed,
            digest=_sha(json.dumps(digests, sort_keys=True)),
            detail={"driver_s": driver_s},
            problems=problems,
            obs=obs,
        )

    def summary(self, jobs: List[JobResult]) -> Dict[str, Tuple[float, str, int]]:
        # Each driver's median over the run's suites; the gated readings
        # scale them to the reference host speed.
        figure_s = [
            stats.median([j.detail["driver_s"][name] for j in jobs])
            for name in jobs[0].detail["driver_s"]
        ]
        scaled = [t / self.speed.slowdown() for t in figure_s]
        return {
            "suite_s": (sum(figure_s), "s", len(jobs)),
            "suite_scaled_s": (sum(scaled), "s", len(jobs)),
            "latency_ms": (stats.interquartile_mean(scaled) * 1e3, "ms", len(scaled)),
            "work_per_s": (len(scaled) / sum(scaled), "1/s", len(jobs)),
        }


# ---------------------------------------------------------------------------
# fleet_campaign


class FleetCampaign:
    """A capture-arbitrated fleet campaign on two pool workers."""

    name = "fleet_campaign"
    workers = 2

    def __init__(self, seed: int, pins: Dict[str, Any]):
        self.seed = seed
        self.speed = host.HostSpeed()

    def setup(self) -> None:
        import_program()
        from repro.fleet.campaign import FleetCampaignConfig

        # Shallow band: every tag powers. Deep band: the 6-antenna array
        # leaves some tags unpowered, the 10-antenna one does not.
        self.config = _offset_seeds(
            FleetCampaignConfig(
                populations=(50, 200, 1000),
                depth_bands=((0.02, 0.06), (0.10, 0.16)),
                array_sizes=(6, 10),
                n_shards=8,
            ),
            self.seed,
        )
        self.tags = (
            len(self.config.depth_bands)
            * len(self.config.array_sizes)
            * sum(self.config.populations)
        )
        self.reference: Optional[List[str]] = None

    def job(self, traced: bool) -> JobResult:
        from repro.fleet.campaign import run_fleet_campaign, validate_fleet_dict
        from repro.obs.context import obs_context

        problems: List[str] = []
        self.speed.sample()
        began = time.perf_counter()
        with obs_context() as obs:
            table = run_fleet_campaign(self.config, workers=self.workers)
        wall = time.perf_counter() - began
        self.speed.sample()
        payload = table.to_json_dict()
        failed = 0
        try:
            validate_fleet_dict(payload)
        except ValueError as exc:  # a schema problem fails every cell
            problems.append(f"fleet table invalid: {exc}")
            failed = len(table.rows)
        rows = [_sha(json.dumps(r, sort_keys=True)) for r in payload["rows"]]
        if self.reference is None:
            self.reference = rows
        elif not failed:
            mismatched = sum(1 for a, b in zip(rows, self.reference) if a != b)
            if mismatched:
                problems.append(f"{mismatched} fleet cells changed on repeat")
            failed = mismatched
        return JobResult(
            wall_s=wall,
            attempted=len(rows),
            failed=failed,
            digest=_sha(json.dumps(payload, sort_keys=True)),
            problems=problems,
            obs=obs,
        )

    def summary(self, jobs: List[JobResult]) -> Dict[str, Tuple[float, str, int]]:
        # fleet_tags_per_s from the median wall; the gated readings scale
        # it to the reference host speed.
        wall = stats.median([j.wall_s for j in jobs])
        scaled = wall / self.speed.slowdown()
        return {
            "fleet_tags_per_s": (self.tags / wall, "1/s", len(jobs)),
            "latency_ms": (scaled * 1e3, "ms", len(jobs)),
            "work_per_s": (self.tags / scaled, "1/s", len(jobs)),
        }


# ---------------------------------------------------------------------------
# plan_serve

SERVE_SOURCES = ("computed", "memory", "store", "disk", "coalesced")

SERVE_SEARCH = {
    "n_draws": 12,
    "grid_size": 2048,
    "n_candidates": 16,
    "refine_rounds": 1,
    "refine_steps": [1, 2, 5],
}
"""Search size of every request: ``tools/loadgen.py``'s defaults."""


def plan_response_problems(payload: Any) -> List[str]:
    """``tools/loadgen.py``'s ``/plan`` schema check plus ``source`` and
    ``latency_ms``, which an in-process caller also reads."""
    from tools.loadgen import validate_response

    if not isinstance(payload, dict):
        return ["response is not an object"]
    problems = validate_response(payload)
    if payload.get("source") not in SERVE_SOURCES:
        problems.append(f"unknown source {payload.get('source')!r}")
    if "latency_ms" not in payload:
        problems.append("missing field 'latency_ms'")
    return problems


@dataclass
class Request:
    """One generated request of the open-loop schedule."""

    rid: int
    due_s: float
    key_id: int
    payload: Dict[str, Any]


class PlanServe:
    """Poisson traffic into ``PlanService.handle`` in-process.

    One job is a sequential warm-up (one request in flight; it fills the
    store and the gate reads peak memory after it), then for each of
    :attr:`NOMINAL_BLOCKS` a sequential segment, an open-loop segment at
    the nominal rate and a closed-loop saturation segment, then one
    ladder of offered rates that stops at its first rung missing the
    latency limit.

    * The sequential segments time cold searches with nothing beside
      them, spread over the job so that no one slow spell of the host
      holds them all.
    * Unlike the other workloads' readings, these are not scaled to the
      reference host speed (:mod:`perfbench.host`): reference samples
      taken between this workload's stages, after hundreds of MB of
      allocations and the batcher's threads, spread more than the
      readings themselves.
    * The nominal segments together hold :attr:`NOMINAL_BLOCKS` blocks of
      20 requests, so the nominal p95 has ten samples beyond it.
    * A saturation segment keeps :attr:`CONCURRENCY` requests in flight
      through :attr:`SATURATION_BLOCKS` blocks: its throughput is the
      service's capacity at that concurrency, a count over a fixed amount
      of work, which repeats far better between runs than the ladder's
      crossing (a threshold on a noisy backlog and p95).
    * Each ladder rung holds at least :attr:`MIN_BLOCKS` blocks and lasts
      at least :attr:`RUNG_S` seconds, so a growing backlog shows. The
      ladder runs last, so how far it got changes no other stage.

    The traffic follows ``tools/loadgen.py`` where it has a figure: its
    search size, its targets (media and depths), and its cycle of 20
    requests in which each of 4 searches is asked 5 times (one fresh key
    in five). The nominal rate is the top of the 4-12 req/s at which the
    batcher was seen never to co-stack evenly spaced arrivals. The rest
    is assumed: the split of the 16 repeats of a block over hot, warm and
    coalesced requests (6, 6, 4), the memory tier size, the warm-up, the
    saturation concurrency and the ladder.
    """

    name = "plan_serve"
    NOMINAL_RPS = 12.0
    NOMINAL_BLOCKS = (4, 3, 3)
    """Blocks of each nominal segment: 200 requests together."""
    SATURATION_BLOCKS = 28
    """Blocks of each saturation segment: 560 requests, 112 cold searches,
    eight of each key shape."""
    CONCURRENCY = 16
    """Requests in flight in a saturation segment: about as many as the
    open loop holds near its measured capacity (~350 req/s at ~50 ms)."""
    LADDER_RPS = (205.0, 245.0, 295.0, 355.0, 425.0, 510.0, 610.0)
    WARMUP_BLOCKS = 5
    IDLE_BLOCKS = 7
    """Blocks of each sequential segment: 28 cold searches, two of each
    key shape."""
    MIN_BLOCKS = 10
    RUNG_S = 2.0
    LIMIT_MS = 1000.0
    MIX_BLOCK = (("fresh", 3), ("hot", 6), ("warm", 6), ("burst", 1))
    """Events per block of 20 requests. A burst is a fresh key asked at
    every target at once, so a block holds 4 fresh keys, as loadgen's."""
    MEM_ENTRIES = 16
    """Memory tier size: above the hot set plus the plans promoted in one
    block, far below the hundreds of keys a job makes."""
    DRAIN_TIMEOUT_S = 20.0

    def __init__(self, seed: int, pins: Dict[str, Any]):
        self.seed = seed
        self.plans: Dict[int, str] = {}
        self.rss_warm_mb: Optional[float] = None
        self.rss_before_ladder_mb: Optional[float] = None

    def setup(self) -> None:
        import_program()
        from repro.serve.batcher import DEFAULT_FLUSH_WINDOW_S
        from repro.serve.service import PlanService, ServeConfig
        from tools import loadgen

        self._service_cls = PlanService
        self._config_cls = ServeConfig
        self.flush_window_s = DEFAULT_FLUSH_WINDOW_S
        self.targets = loadgen._TARGETS
        self.hot_keys = len(loadgen._SEARCHES)
        self.store_dir = os.path.join(SCRATCH_DIR, f"serve-{os.getpid()}")
        self.block_requests = sum(
            n * (len(self.targets) if c == "burst" else 1) for c, n in self.MIX_BLOCK
        )
        self.stages = self._schedule()

    def _schedule(self) -> List[Tuple[str, float, List[Request]]]:
        """``(kind, rate, requests)`` per stage, due times in s.

        Kinds are ``"warmup"``, ``"idle"``, ``"nominal"``, ``"saturation"`` and
        ``"rung"``. Stages are built from blocks that each hold the
        :attr:`MIX_BLOCK` exactly, shuffled within the block, so seeds
        change which keys arrive when but neither the mix nor how evenly
        it spreads. The due times of a closed-loop stage (the warm-up, the
        sequential and the saturation segments) only order its requests.
        """
        rng = random.Random(f"plan_serve:{self.seed}")
        keys: List[Dict[str, Any]] = []
        shapes: List[Tuple[str, int]] = []
        rid = 0

        def fresh() -> int:
            # Key shapes are dealt from a shuffled deck of every (kind,
            # array size), so each stage's search cost mix is the same
            # (exactly, when it makes a multiple of 14 fresh keys).
            if not shapes:
                shapes.extend(
                    (kind, n) for kind in ("peak", "conduction") for n in range(4, 11)
                )
                rng.shuffle(shapes)
            kind, n_antennas = shapes.pop()
            key = {
                "kind": kind,
                "n_antennas": n_antennas,
                "seed": 1_000_000 * (self.seed + 1) + len(keys),
            }
            if kind == "conduction":
                key["threshold"] = 0.5
            keys.append(key)
            return len(keys) - 1

        def key_for(category: str) -> int:
            # Hot: one of the loadgen-sized set of keys before the newest,
            # whose search may still run. Warm: older than the memory tier
            # holds, so evicted to the store.
            if category == "hot" and len(keys) > self.hot_keys:
                return rng.randrange(len(keys) - 1 - self.hot_keys, len(keys) - 1)
            if category == "warm" and len(keys) > self.MEM_ENTRIES:
                return rng.randrange(len(keys) - self.MEM_ENTRIES)
            return fresh()

        block = [c for c, n in self.MIX_BLOCK for _ in range(n)]
        block_requests = self.block_requests

        def stage(kind: str, rate: float, blocks: int) -> Tuple[str, float, List[Request]]:
            nonlocal rid
            shapes.clear()  # every stage deals its key shapes from full decks
            events: List[str] = []
            for _ in range(blocks):
                shuffled = list(block)
                rng.shuffle(shuffled)
                events += shuffled
            event_rate = rate * len(block) / block_requests
            requests: List[Request] = []
            t = 0.0
            for category in events:
                t += rng.expovariate(event_rate)
                key_id = key_for(category)
                if category == "burst":
                    # One key at every target at once, inside one flush
                    # window: what the batcher coalesces.
                    copies = [
                        (t + rng.uniform(0.0, self.flush_window_s), target)
                        for target in self.targets
                    ]
                else:
                    copies = [(t, rng.choice(self.targets))]
                for due, target in copies:
                    payload = {**keys[key_id], **SERVE_SEARCH, **target}
                    requests.append(Request(rid, due, key_id, payload))
                    rid += 1
            requests.sort(key=lambda r: r.due_s)
            return kind, rate, requests

        stages = [stage("warmup", self.NOMINAL_RPS, self.WARMUP_BLOCKS)]
        for blocks in self.NOMINAL_BLOCKS:
            stages.append(stage("idle", self.NOMINAL_RPS, self.IDLE_BLOCKS))
            stages.append(stage("nominal", self.NOMINAL_RPS, blocks))
            stages.append(stage("saturation", self.NOMINAL_RPS, self.SATURATION_BLOCKS))
        for rate in self.LADDER_RPS:
            blocks = max(self.MIN_BLOCKS, math.ceil(rate * self.RUNG_S / block_requests))
            stages.append(stage("rung", rate, blocks))
        return stages

    def job(self, traced: bool) -> JobResult:
        from repro.obs.context import obs_context

        shutil.rmtree(self.store_dir, ignore_errors=True)
        os.makedirs(self.store_dir)
        try:
            with obs_context() as obs:
                began = time.perf_counter()
                records = asyncio.run(self._drive(obs))
                wall = time.perf_counter() - began
        finally:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        return self._score(records, wall, obs)

    async def _drive(self, obs) -> List[Tuple[str, float, List[Dict[str, Any]], float, float]]:
        """``(kind, rate, records, wall_s)`` per stage run."""
        service = self._service_cls(
            self._config_cls(
                workers=1,
                store_path=os.path.join(self.store_dir, "plans.sqlite"),
                mem_entries=self.MEM_ENTRIES,
            ),
            obs=obs,
        )
        results = []
        try:
            for kind, rate, requests in self.stages:
                if kind == "rung" and self.rss_before_ladder_mb is None:
                    self.rss_before_ladder_mb = peak_rss_mb()
                began = time.perf_counter()
                if kind == "warmup":
                    records = await self._closed_stage(service, requests, 1)
                    self.rss_warm_mb = peak_rss_mb()
                elif kind == "idle":
                    records = await self._closed_stage(service, requests, 1)
                elif kind == "saturation":
                    records = await self._closed_stage(service, requests, self.CONCURRENCY)
                else:
                    records = await self._stage(service, requests)
                wall = time.perf_counter() - began
                results.append((kind, rate, records, wall))
                # The ladder ends at its first rung that misses the limit:
                # the crossing lies below it, and deeper overload only
                # lengthens the drain.
                if kind == "rung" and self._pressure(records) > 1:
                    break
        finally:
            await service.close()
        return results

    @staticmethod
    def _latencies(records: List[Dict[str, Any]]) -> Tuple[List[float], float]:
        """Latencies from due time (failed or wrong: ``inf``) and backlog growth."""
        ok = [not r["problems"] and r["plan"] is not None for r in records]
        latencies = stats.latencies_ms(
            (r["due_s"], r["done_s"], good) for r, good in zip(records, ok)
        )
        growth = stats.backlog_growth(
            [r["due_s"] for r in records],
            [r["done_s"] if good else math.inf for r, good in zip(records, ok)],
        )
        return latencies, growth

    def _pressure(self, records: List[Dict[str, Any]]) -> float:
        """A rung's p95 over the limit or its backlog growth, the larger."""
        latencies, growth = self._latencies(records)
        return max(stats.percentile(latencies, 95) / self.LIMIT_MS, growth)

    async def _request(self, service, request: Request, due: float, records) -> None:
        """Send one request; its record goes into ``records``."""
        layers.REQUEST_ID.set(request.rid)
        record = {
            "rid": request.rid,
            "key_id": request.key_id,
            "due_s": due,
            "late_s": time.perf_counter() - due,
            "done_s": math.inf,
            "source": "error",
            "plan": None,
            "problems": [],
        }
        records.append(record)
        try:
            response = await service.handle(dict(request.payload))
        except Exception as exc:  # a failed request is a missed request
            record["problems"].append(f"{type(exc).__name__}: {exc}")
            return
        record["done_s"] = time.perf_counter()
        record["problems"] = plan_response_problems(response)
        record["source"] = response.get("source")
        record["plan"] = _sha(json.dumps(response.get("result"), sort_keys=True))

    async def _stage(self, service, requests: List[Request]) -> List[Dict[str, Any]]:
        """Open loop: each request is sent at its due time."""
        loop_start = time.perf_counter() + 0.05
        records: List[Dict[str, Any]] = []
        tasks = []
        for request in requests:
            due = loop_start + request.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(self._request(service, request, due, records)))
        done, pending = await asyncio.wait(tasks, timeout=self.DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        return records

    async def _closed_stage(
        self, service, requests: List[Request], concurrency: int
    ) -> List[Dict[str, Any]]:
        """Closed loop: ``concurrency`` clients take the requests in order,
        each sending its next as soon as its last is answered."""
        records: List[Dict[str, Any]] = []
        queue = iter(requests)

        async def client() -> None:
            for request in queue:
                await self._request(service, request, time.perf_counter(), records)

        await asyncio.wait_for(
            asyncio.gather(*(client() for _ in range(concurrency))),
            timeout=self.DRAIN_TIMEOUT_S,
        )
        return records

    def _score(self, stages, wall: float, obs) -> JobResult:
        problems: List[str] = []
        attempted = failed = coalesced = 0
        nominal: List[List[Dict[str, Any]]] = []
        saturation_rps: List[float] = []
        rungs: List[Dict[str, Any]] = []
        late_ms: List[float] = []
        cold_idle_ms: List[float] = []
        # Every job runs every stage before the ladder; how far it climbs
        # the ladder depends on the host's speed. So only the keys of the
        # stages before it make the job's digest, while the check against
        # self.plans covers every key of every job.
        always_run: Dict[int, str] = {}
        for kind, rate, records, stage_s in stages:
            for record in records:
                wrong = bool(record["problems"]) or record["plan"] is None
                if not wrong:
                    expected = self.plans.setdefault(record["key_id"], record["plan"])
                    if record["plan"] != expected:
                        record["problems"].append("plan differs for the same key")
                        wrong = True
                    elif kind != "rung":
                        always_run[record["key_id"]] = record["plan"]
                if wrong:
                    failed += 1
                    problems.append(f"request {record['rid']}: {record['problems']}")
                coalesced += record["source"] == "coalesced"
            attempted += len(records)
            if kind == "idle":
                cold_idle_ms += [
                    (r["done_s"] - r["due_s"]) * 1e3
                    for r in records
                    if r["source"] == "computed" and not r["problems"]
                ]
            elif kind == "nominal":
                nominal.append(records)
            elif kind == "saturation":
                served = sum(not r["problems"] and r["plan"] is not None for r in records)
                saturation_rps.append(served / stage_s)
            elif kind == "rung":
                rungs.append(self._rung(rate, [records]))
            if kind in ("nominal", "rung"):
                late_ms.extend(r["late_s"] * 1e3 for r in records)
        nominal_rung = self._rung(self.NOMINAL_RPS, nominal)
        if (stats.tail_percentile(nominal_rung["sent"]) or 0) < 95:
            problems.append("too few nominal requests for a p95 with ten beyond")
        return JobResult(
            wall_s=wall,
            attempted=attempted,
            failed=failed,
            digest=_sha(json.dumps(sorted(always_run.items()))),
            problems=problems[:20],
            counts={"serve.coalesced": coalesced, "serve.responses": attempted},
            detail={
                "nominal": nominal_rung,
                "saturation_rps": saturation_rps,
                "rungs": rungs,
                "late_ms": late_ms,
                "cold_idle_ms": cold_idle_ms,
            },
            obs=obs,
        )

    def _rung(self, rate: float, segments: List[List[Dict[str, Any]]]) -> Dict[str, Any]:
        """Readings of one offered rate over its segments (backlog: the
        worst segment's)."""
        records = [r for segment in segments for r in segment]
        latencies: List[float] = []
        growth = 0.0
        for segment in segments:
            segment_latencies, segment_growth = self._latencies(segment)
            latencies += segment_latencies
            growth = max(growth, segment_growth)
        bad = sum(math.isinf(lat) for lat in latencies)
        return {
            "rate": rate,
            "sent": len(records),
            "ok": len(records) - bad,
            "failed": bad,
            "p50_ms": stats.percentile(latencies, 50),
            "p95_ms": stats.percentile(latencies, 95),
            "mean_ms": sum(latencies) / len(latencies),
            "cold_ms": [
                lat for lat, r in zip(latencies, records) if r["source"] == "computed"
            ],
            "sources": {
                name: sum(r["source"] == name for r in records)
                for name in SERVE_SOURCES + ("error",)
                if any(r["source"] == name for r in records)
            },
            "growth": growth,
        }

    def summary(self, jobs: List[JobResult]) -> Dict[str, Tuple[float, str, int]]:
        job = jobs[-1]
        nominal = job.detail["nominal"]
        rungs = job.detail["rungs"]
        saturation = job.detail["saturation_rps"]
        max_rps, _ = stats.interpolated_max_rate(
            [nominal["rate"]] + [r["rate"] for r in rungs],
            [max(r["p95_ms"] / self.LIMIT_MS, r["growth"]) for r in [nominal] + rungs],
        )
        late = job.detail["late_ms"]
        cold = nominal["cold_ms"]
        cold_p50 = stats.median(cold) if cold else math.inf
        cold_idle = job.detail["cold_idle_ms"]
        cold_idle_p50 = stats.median(cold_idle) if cold_idle else math.inf
        saturated = stats.median(saturation)
        return {
            "plan_p50_ms": (nominal["p50_ms"], "ms", nominal["sent"]),
            "plan_p95_ms": (nominal["p95_ms"], "ms", nominal["sent"]),
            "plan_cold_p50_ms": (cold_p50, "ms", len(cold)),
            "plan_cold_idle_p50_ms": (cold_idle_p50, "ms", len(cold_idle)),
            "plan_max_rps": (max_rps, "1/s", len(rungs) + 1),
            "plan_saturated_rps": (saturated, "1/s", len(saturation)),
            "plan_gen_late_ms.p95": (stats.percentile(late, 95), "ms", len(late)),
            "latency_ms": (cold_idle_p50, "ms", len(cold_idle)),
            # Under concurrency the peak follows how many searches happen
            # to stack at once (it spread 0.17 of its median over five
            # runs before the ladder, more with the ladder's overload), so
            # the gate reads the peak after the sequential warm-up.
            "peak_rss_mb": (self.rss_warm_mb, "MB", 1),
            "peak_rss_mb.concurrent": (self.rss_before_ladder_mb, "MB", 1),
            "peak_rss_mb.run": (peak_rss_mb(), "MB", 1),
            "work_per_s": (saturated, "1/s", len(saturation)),
        }

    def rung_lines(self, job: JobResult) -> List[str]:
        lines = [
            f"  {label:<8} {r['rate']:5.1f} rps: sent {r['sent']} ok {r['ok']} "
            f"failed {r['failed']} p50 {r['p50_ms']:.2f} ms p95 {r['p95_ms']:.2f} ms "
            f"backlog growth {r['growth']:.2f} "
            f"({'growing' if r['growth'] > 1 else 'stable'}) {r['sources']}"
            for label, r in [("nominal", job.detail["nominal"])]
            + [("rung", r) for r in job.detail["rungs"]]
        ]
        rates = " ".join(f"{rps:.1f}" for rps in job.detail["saturation_rps"])
        return lines + [f"  saturation at {self.CONCURRENCY} in flight (req/s): {rates}"]


WORKLOADS = {cls.name: cls for cls in (PaperSuite, PlanServe, FleetCampaign)}
