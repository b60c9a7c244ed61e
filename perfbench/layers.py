"""Outside-in layer tracing: wrappers around the program's public functions.

Only a traced run calls :func:`install`. Each wrapper replaces a function
at the place its callers look it up (a module global such as
``repro.runtime.engine.power_up_chunk`` or a class attribute such as
``BlindChannel.realize``), opens a span named ``pb:<layer>`` on the
program's current tracer, and attaches counts taken from the call's
arguments and return value as span attributes. Recording through the
program's tracer is what carries spans home from pool workers: the
runner already ships each worker's trace back with the chunk result, and
forked workers inherit the installed wrappers.

:class:`LayerTotals` turns the recorded spans into the per-layer metrics
named in :data:`MOVES`; :mod:`perfbench.stats` does the arithmetic.
"""

import contextvars
import functools
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import stats

PREFIX = "pb:"

REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None
)
"""Id of the ``plan_serve`` request the current code works for."""

# Layer metric -> (end-to-end reading it should move, workload). Names and
# units are BENCHMARK.json's ``per_layer``; this is only the map.
MOVES: Dict[str, Tuple[str, str]] = {
    "engine.calls": ("suite_s", "paper_suite"),
    "engine.trials": ("suite_s", "paper_suite"),
    "engine.trials_per_call": ("suite_s", "paper_suite"),
    "engine.busy_s": ("suite_s", "paper_suite"),
    "engine.self_s": ("suite_s", "paper_suite"),
    "em.realize.calls": ("suite_s", "paper_suite"),
    "em.realize.busy_s": ("suite_s", "paper_suite"),
    "runner.map_calls": ("suite_s", "paper_suite"),
    "runner.chunks": ("fleet_tags_per_s", "fleet_campaign"),
    "runner.pool_starts": ("fleet_tags_per_s", "fleet_campaign"),
    "runner.busy_s": ("fleet_tags_per_s", "fleet_campaign"),
    "runner.overhead_s": ("fleet_tags_per_s", "fleet_campaign"),
    "kernels.rectifier.samples": ("suite_s", "paper_suite"),
    "kernels.rectifier.busy_s": ("suite_s", "paper_suite"),
    "kernels.hysteresis.busy_s": ("suite_s", "paper_suite"),
    "kernels.capture.samples": ("fleet_tags_per_s", "fleet_campaign"),
    "kernels.capture.busy_s": ("fleet_tags_per_s", "fleet_campaign"),
    "kernels.ber.chips": ("fleet_tags_per_s", "fleet_campaign"),
    "kernels.ber.busy_s": ("fleet_tags_per_s", "fleet_campaign"),
    "faults.busy_s": ("suite_s", "paper_suite"),
    "faults.trials": ("suite_s", "paper_suite"),
    "optimizer.searches": ("plan_cold_p50_ms", "plan_serve"),
    "optimizer.busy_s": ("plan_cold_p50_ms", "plan_serve"),
    "optimizer.candidates_scored": ("plan_cold_p50_ms", "plan_serve"),
    "optimizer.stacked_calls": ("plan_p95_ms", "plan_serve"),
    "optimizer.specs_per_stacked_call": ("plan_max_rps", "plan_serve"),
    "optimizer.stacked_busy_s": ("plan_cold_p50_ms", "plan_serve"),
    "cache.lookups": ("plan_p50_ms", "plan_serve"),
    "cache.memory_hit_ratio": ("plan_p50_ms", "plan_serve"),
    "cache.store_hit_ratio": ("plan_p50_ms", "plan_serve"),
    "cache.miss_ratio": ("plan_p50_ms", "plan_serve"),
    "serve.parse.busy_s": ("plan_p50_ms", "plan_serve"),
    "serve.batch_wait_ms.p50": ("plan_p50_ms", "plan_serve"),
    "serve.batch_wait_ms.p95": ("plan_p95_ms", "plan_serve"),
    "serve.batch_size.mean": ("plan_p95_ms", "plan_serve"),
    "serve.coalesced_ratio": ("plan_p95_ms", "plan_serve"),
    "serve.store.gets": ("plan_p50_ms", "plan_serve"),
    "serve.store.puts": ("plan_p50_ms", "plan_serve"),
    "serve.store.get_ms.p50": ("plan_p50_ms", "plan_serve"),
    "serve.store.put_ms.p50": ("plan_p95_ms", "plan_serve"),
    "fleet.population.tags": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.population.busy_s": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.collision.busy_s": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.collision.self_s": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.collision.rounds": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.collision.slots": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.collision.decode_attempts": ("fleet_tags_per_s", "fleet_campaign"),
    "fleet.collision.decode_yield": ("fleet_tags_per_s", "fleet_campaign"),
    "gen2.fm0.busy_s": ("fleet_tags_per_s", "fleet_campaign"),
}

EXPERIMENT_DRIVERS = {
    "ablations": "ablations",
    "ber": "ber",
    "constraints": "constraint_check",
    "degradation": "degradation",
    "fig04": "fig04",
    "fig05": "fig05",
    "fig06": "fig06",
    "fig09": "fig09",
    "fig10": "fig10",
    "fig11": "fig11",
    "fig12": "fig12",
    "fig13": "fig13",
    "fleet": "fleet",
    "invivo": "invivo",
    "optogenetics": "optogenetics",
    "sensitivity": "sensitivity",
    "throughput": "inventory_throughput",
    "wakeup": "wakeup_latency",
}
"""The CLI's ``all`` set: experiment name -> driver module. Each driver's
run is the layer ``experiments.<name>``."""

MOVES.update(
    (f"experiments.{name}_s", ("suite_s", "paper_suite"))
    for name in EXPERIMENT_DRIVERS
)

TIMING_DEPENDENT = (
    "cache.memory_hit_ratio",
    "cache.store_hit_ratio",
    "cache.miss_ratio",
    "serve.store.gets",
    "serve.batch_size.mean",
    "serve.coalesced_ratio",
    "optimizer.specs_per_stacked_call",
    "optimizer.stacked_calls",
    "serve.batch_wait_ms.p50",
    "serve.batch_wait_ms.p95",
)
"""``plan_serve`` metrics that depend on arrival timing even within a
rung: which requests share a batch (and hence the batch size, the
coalesced share and the stacked width) depends on when each one arrives
relative to the flush window, and whether a repeat finds its key in
memory or still in flight decides the cache-tier shares. (Every
``plan_serve`` count also depends on how far the ladder climbed.)"""


def _size(array: Any) -> int:
    return int(np.size(array))


def _engine(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    return {"trials": int(a["count"])}


def _rectifier(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    return {"samples": _size(a["envelopes_v"])}


def _capture_batch(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    return {"samples": _size(a["signal"]) * int(a["n_periods"])}


def _capture_block(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    return {"samples": _size(a["signals"]) * int(a["n_periods"])}


def _fm0_decode(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    rows, width = np.shape(a["waveforms"])
    return {"chips": rows * width // int(a["samples_per_chip"]), "words": rows}


def _faults(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    return {"trials": int(a["n_trials"]) * (len(a["severities"]) + 1)}


def _search(_: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"candidates": int(result.n_evaluations)}


def _stacked(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    return {"specs": len(a["specs"])}


def _cache(_: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"tier": result[1]}


def _population(_: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"tags": int(result.n_tags)}


def _inventory(_: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {
        "rounds": len(result.rounds),
        "slots": int(result.slots_used),
        "decoded": sum(int(np.count_nonzero(r.decoded)) for r in result.rounds),
    }


def _map(a: Dict[str, Any], _: Any) -> Dict[str, Any]:
    label = a.get("label", "runner.chunk")
    return {"chunks": len(a["self"].range_spans(a["start"], a["stop"])), "label": label}


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, layer, counter)`` of every wrapped function."""
    from repro.core import optimizer
    from repro.em.channel import BlindChannel
    from repro.experiments import degradation
    from repro.fleet import campaign, collision
    from repro.kernels import ber as ber_kernels
    import repro.kernels as kernels
    from repro.runtime import cache, engine, runner
    from repro.serve import service, store

    return [
        (engine, "measure_gain_chunk", "engine", _engine),
        (engine, "power_up_chunk", "engine", _engine),
        (engine, "wakeup_latency_chunk", "engine", _engine),
        (engine, "strategy_gain_chunk", "engine", _engine),
        (BlindChannel, "realize", "em.realize", None),
        (runner.TrialRunner, "map_range", "runner", _map),
        (engine, "rectifier_batch", "kernels.rectifier", _rectifier),
        (kernels, "hysteresis_mask_batch", "kernels.hysteresis", None),
        (kernels, "capture_batch", "kernels.capture", _capture_batch),
        (collision, "capture_block", "kernels.capture", _capture_block),
        (collision, "fm0_block_errors", "kernels.ber", _fm0_decode),
        (ber_kernels, "fm0_block_errors", "kernels.ber", _fm0_decode),
        (degradation, "run_campaign", "faults", _faults),
        (optimizer.FrequencyOptimizer, "optimize", "optimizer.search", _search),
        (
            optimizer.FrequencyOptimizer,
            "optimize_conduction",
            "optimizer.search",
            _search,
        ),
        (optimizer, "evaluate_stacked_specs", "optimizer.stacked", _stacked),
        (service, "evaluate_stacked_specs", "optimizer.stacked", _stacked),
        (cache.PlanCache, "lookup_tiered", "cache", _cache),
        (service, "parse_request", "serve.parse", None),
        (store.PlanStore, "get", "serve.store.get", None),
        (store.PlanStore, "put", "serve.store.put", None),
        (campaign, "generate_shard", "fleet.population", _population),
        (campaign, "run_inventory", "fleet.collision", _inventory),
        (collision, "encode_chips_block", "gen2.fm0", None),
    ]


def _wrap(original: Callable, layer: str, counter: Optional[Callable]):
    from repro.obs.context import current_obs

    signature = inspect.signature(original) if counter else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with current_obs().tracer.span(
            PREFIX + layer, rid=REQUEST_ID.get()
        ) as span:
            result = original(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                span.attrs.update(counter(bound.arguments, result))
        return result

    return wrapper


class Installed:
    """The wrappers of one traced run; :meth:`remove` restores originals."""

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []
        self.enqueued: Dict[int, Tuple[float, Any]] = {}
        self.pool_starts = 0

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def install() -> Installed:
    """Wrap every layer boundary; returns the handle that undoes it."""
    from repro.runtime.runner import TrialRunner
    from repro.serve.batcher import MicroBatcher
    from repro.serve.service import PlanService

    handle = Installed()
    for owner, name, layer, counter in _targets():
        original = owner.__dict__[name]
        handle.patch(owner, name, _wrap(original, layer, counter))

    acquire = TrialRunner.__dict__["_acquire_pool"]

    def acquire_pool(self, max_workers):
        # A one-shot runner builds a pool on every map call; a persistent
        # one only when it holds none.
        if not self.persistent or self._pool is None:
            handle.pool_starts += 1
        return acquire(self, max_workers)

    handle.patch(TrialRunner, "_acquire_pool", acquire_pool)

    submit = MicroBatcher.__dict__["submit"]

    async def batcher_submit(self, item):
        handle.enqueued[id(item)] = (time.perf_counter(), REQUEST_ID.get())
        return await submit(self, item)

    handle.patch(MicroBatcher, "submit", batcher_submit)

    execute = PlanService.__dict__["_execute_batch"]

    def execute_batch(self, requests):
        from repro.obs.context import current_obs

        began = time.perf_counter()
        entries = [handle.enqueued.pop(id(r), (began, None)) for r in requests]
        with current_obs().tracer.span(
            PREFIX + "serve.batch",
            rid=entries[0][1],
            rids=[rid for _, rid in entries],
            size=len(requests),
            waits_ms=[(began - t) * 1e3 for t, _ in entries],
        ):
            for request, (_, rid) in zip(requests, entries):
                handle.enqueued[id(request)] = (began, rid)
            try:
                return execute(self, requests)
            finally:
                for request in requests:
                    handle.enqueued.pop(id(request), None)

    handle.patch(PlanService, "_execute_batch", execute_batch)

    compute = PlanService.__dict__["_compute"]

    def compute_one(self, request, obs, scorer, pid):
        entry = handle.enqueued.get(id(request))
        token = REQUEST_ID.set(entry[1] if entry else None)
        try:
            return compute(self, request, obs, scorer, pid)
        finally:
            REQUEST_ID.reset(token)

    handle.patch(PlanService, "_compute", compute_one)
    return handle


def span_record(name: str):
    """A span the workload itself opens (``experiments.<driver>``)."""
    from repro.obs.context import current_obs

    return current_obs().tracer.span(PREFIX + name, rid=REQUEST_ID.get())


class LayerTotals:
    """Per-layer sums accumulated over the traced jobs of one run."""

    def __init__(self):
        self.sums: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def absorb(self, tracer_spans: List[Any], pool_starts: int) -> None:
        """Fold one job's spans (from the program's tracer) into the sums."""
        ours = wrapped_spans(tracer_spans)
        by_id = {span["span_id"]: span for span in ours}
        rows = []
        for span in ours:
            layer = span["name"][len(PREFIX):]
            attrs = span["attrs"]
            rows.append(
                (span["span_id"], span["parent_id"], span["start_s"], span["end_s"], layer)
            )
            self.add(f"{layer}.calls", 1)
            for key, value in attrs.items():
                if key not in ("rid", "worker") and isinstance(
                    value, (int, float)
                ) and not isinstance(value, bool):
                    self.add(f"{layer}.{key}", value)
            if layer == "cache":
                self.add(f"cache.{attrs['tier']}", 1)
            elif layer == "serve.batch":
                self.samples.setdefault("serve.batch_wait_ms", []).extend(attrs["waits_ms"])
            elif layer in ("serve.store.get", "serve.store.put"):
                self.samples.setdefault(f"{layer}_ms", []).append(
                    (span["end_s"] - span["start_s"]) * 1e3
                )
            elif layer == "kernels.ber":
                parent = by_id.get(span["parent_id"])
                if parent is not None and parent["name"] == PREFIX + "fleet.collision":
                    self.add("fleet.collision.decode_attempts", attrs["words"])
        for layer, (busy, own) in stats.layer_times(rows).items():
            self.add(f"{layer}.busy_s", busy)
            self.add(f"{layer}.self_s", own)
        self.add("runner.pool_starts", pool_starts)
        self.add("runner.overhead_s", _runner_overhead(tracer_spans))

    def metrics(self) -> Dict[str, float]:
        """The :data:`MOVES` metrics' values (0 where a layer never ran)."""
        s = lambda name: self.sums.get(name, 0.0)  # noqa: E731

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def p(name: str, q: float) -> float:
            values = self.samples.get(name)
            return stats.percentile(values, q) if values else 0.0

        lookups = s("cache.calls")
        attempts = s("fleet.collision.decode_attempts")
        values = {
            "engine.calls": s("engine.calls"),
            "engine.trials": s("engine.trials"),
            "engine.trials_per_call": ratio(s("engine.trials"), s("engine.calls")),
            "engine.busy_s": s("engine.busy_s"),
            "engine.self_s": s("engine.self_s"),
            "em.realize.calls": s("em.realize.calls"),
            "em.realize.busy_s": s("em.realize.busy_s"),
            "runner.map_calls": s("runner.calls"),
            "runner.chunks": s("runner.chunks"),
            "runner.pool_starts": s("runner.pool_starts"),
            "runner.busy_s": s("runner.busy_s"),
            "runner.overhead_s": s("runner.overhead_s"),
            "kernels.rectifier.samples": s("kernels.rectifier.samples"),
            "kernels.rectifier.busy_s": s("kernels.rectifier.busy_s"),
            "kernels.hysteresis.busy_s": s("kernels.hysteresis.busy_s"),
            "kernels.capture.samples": s("kernels.capture.samples"),
            "kernels.capture.busy_s": s("kernels.capture.busy_s"),
            "kernels.ber.chips": s("kernels.ber.chips"),
            "kernels.ber.busy_s": s("kernels.ber.busy_s"),
            "faults.busy_s": s("faults.busy_s"),
            "faults.trials": s("faults.trials"),
            "optimizer.searches": s("optimizer.search.calls"),
            "optimizer.busy_s": s("optimizer.search.busy_s"),
            "optimizer.candidates_scored": s("optimizer.search.candidates"),
            "optimizer.stacked_calls": s("optimizer.stacked.calls"),
            "optimizer.specs_per_stacked_call": ratio(
                s("optimizer.stacked.specs"), s("optimizer.stacked.calls")
            ),
            "optimizer.stacked_busy_s": s("optimizer.stacked.busy_s"),
            "cache.lookups": lookups,
            "cache.memory_hit_ratio": ratio(s("cache.memory"), lookups),
            "cache.store_hit_ratio": ratio(s("cache.store") + s("cache.disk"), lookups),
            "cache.miss_ratio": ratio(s("cache.miss"), lookups),
            "serve.parse.busy_s": s("serve.parse.busy_s"),
            "serve.batch_wait_ms.p50": p("serve.batch_wait_ms", 50),
            "serve.batch_wait_ms.p95": p("serve.batch_wait_ms", 95),
            "serve.batch_size.mean": ratio(
                s("serve.batch.size"), s("serve.batch.calls")
            ),
            "serve.coalesced_ratio": ratio(
                s("serve.coalesced"), s("serve.responses")
            ),
            "serve.store.gets": s("serve.store.get.calls"),
            "serve.store.puts": s("serve.store.put.calls"),
            "serve.store.get_ms.p50": p("serve.store.get_ms", 50),
            "serve.store.put_ms.p50": p("serve.store.put_ms", 50),
            "fleet.population.tags": s("fleet.population.tags"),
            "fleet.population.busy_s": s("fleet.population.busy_s"),
            "fleet.collision.busy_s": s("fleet.collision.busy_s"),
            "fleet.collision.self_s": s("fleet.collision.self_s"),
            "fleet.collision.rounds": s("fleet.collision.rounds"),
            "fleet.collision.slots": s("fleet.collision.slots"),
            "fleet.collision.decode_attempts": attempts,
            "fleet.collision.decode_yield": ratio(
                s("fleet.collision.decoded"), attempts
            ),
            # FM0 encode plus the FM0 block decode (the BER kernel).
            "gen2.fm0.busy_s": s("gen2.fm0.busy_s") + s("kernels.ber.busy_s"),
        }
        for name in EXPERIMENT_DRIVERS:
            values[f"experiments.{name}_s"] = s(f"experiments.{name}.busy_s")
        assert set(values) == set(MOVES)
        return values

    def sample_counts(self) -> Dict[str, int]:
        return {name: len(values) for name, values in self.samples.items()}


def wrapped_spans(tracer_spans: List[Any]) -> List[Dict[str, Any]]:
    """The layer spans of a job, each parented to its nearest layer span.

    The program's own spans sit between layer spans in the tracer; they
    are skipped when following parent links. Pool-worker spans have no
    layer parent in their process and stay roots.
    """
    everything = {s.span_id: s for s in tracer_spans}
    out = []
    for span in tracer_spans:
        if not span.name.startswith(PREFIX):
            continue
        parent = everything.get(span.parent_id)
        while parent is not None and not parent.name.startswith(PREFIX):
            parent = everything.get(parent.parent_id)
        out.append(
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": None if parent is None else parent.span_id,
                "start_s": span.start_s,
                "end_s": span.end_s,
                "attrs": dict(span.attrs),
            }
        )
    return out


def _runner_overhead(tracer_spans: List[Any]) -> float:
    """Map wall minus the time its chunk functions were running.

    In-process chunks are the runner's chunk spans (named by the map's
    label) directly under the wrapped map span; pooled chunks are the
    absorbed worker root spans of that label inside the map's interval.
    Pooled chunks overlap, so their union is subtracted: what remains is
    pool start-up, dispatch, pickling and waiting on the slowest worker.
    """
    maps = [s for s in tracer_spans if s.name == PREFIX + "runner"]
    if not maps:
        return 0.0
    by_parent: Dict[int, List[Any]] = {}
    worker_roots = []
    for span in tracer_spans:
        if span.parent_id is not None:
            by_parent.setdefault(span.parent_id, []).append(span)
        elif span.attrs.get("subprocess"):
            worker_roots.append(span)
    total = 0.0
    for span in maps:
        label = span.attrs["label"]
        chunks = [
            (c.start_s, c.end_s)
            for c in by_parent.get(span.span_id, ())
            if c.name == label
        ] + [
            (w.start_s, w.end_s)
            for w in worker_roots
            if w.name == label
            and span.start_s <= w.start_s
            and w.end_s <= span.end_s
        ]
        total += (span.end_s - span.start_s) - stats.union_length(chunks)
    return total
