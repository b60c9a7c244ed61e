"""Benchmark-harness helpers.

Each bench regenerates one table or figure from the paper's evaluation and
prints the same rows/series the paper reports. Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the reproduced tables inline.

Every ``run_once`` call also records the bench's wall-clock time and the
number of Monte-Carlo trials the :mod:`repro.runtime` engine processed
during it; the session writes the rows to ``BENCH_runtime.json`` at the
repo root so throughput regressions show up in review diffs, and appends
the same rows as one entry to the append-only ``BENCH_history.jsonl`` so
``tools/bench_sentinel.py`` can hold a trend baseline against them.

Every row is stamped with the git revision and a short environment
fingerprint (python/numpy versions, CPU count; see
:func:`repro.obs.history.env_fingerprint`); rows from different
environments never silently merge into one baseline.
"""

import json
import time
from pathlib import Path

import pytest

from repro.obs.history import env_fingerprint, fingerprint_hash
from repro.obs.manifest import git_revision
from repro.runtime import get_instrumentation

_RUNTIME_ROWS = []
_ENV = env_fingerprint()
_FINGERPRINT = fingerprint_hash(_ENV)
_GIT_REV = git_revision()


def _engine_trials() -> int:
    """Total trials the runtime instrumentation has seen so far."""
    return sum(row[3] for row in get_instrumentation().rows())


def _search_candidates() -> int:
    """Total candidate sets the frequency-search pipeline has scored."""
    from repro.obs.context import current_obs

    return int(current_obs().metrics.counter("search.candidates_scored").value)


_KERNEL_COUNTERS = (
    "kernels.rectifier_samples",
    "kernels.hysteresis_samples",
    "kernels.capture_samples",
    "kernels.ber_chips",
)


def _kernel_samples() -> int:
    """Total samples the vectorized time-domain kernels have processed."""
    from repro.obs.context import current_obs

    metrics = current_obs().metrics
    return int(sum(metrics.counter(name).value for name in _KERNEL_COUNTERS))


def _serve_plans() -> int:
    """Total plans the serving layer has answered."""
    from repro.obs.context import current_obs

    return int(current_obs().metrics.counter("serve.plans").value)


def _fleet_tags() -> int:
    """Total tags the fleet resolver has inventoried (vectorized path)."""
    from repro.obs.context import current_obs

    return int(current_obs().metrics.counter("fleet.tags_inventoried").value)


def _adaptive_counters() -> tuple:
    """(trials run, trials saved) by the streaming adaptive allocator."""
    from repro.obs.context import current_obs

    metrics = current_obs().metrics
    return (
        int(metrics.counter("adaptive.trials_run").value),
        int(metrics.counter("adaptive.trials_saved").value),
    )


def run_once(benchmark, fn, row_extra=None):
    """Execute ``fn`` exactly once under the benchmark timer.

    The experiments are monte-carlo sweeps, not microbenchmarks; one round
    gives the wall-clock cost of regenerating the figure while keeping the
    suite fast.

    Counters a bench never touches are omitted from its row entirely --
    a row without ``engine_trials`` means "not a trial workload", which
    reads differently from a measured zero throughput.

    ``row_extra`` (a dict, or a zero-argument callable returning one,
    evaluated after the run) merges extra fields into the recorded row --
    how ``bench_serve`` attaches latency quantiles and batch occupancy.
    """
    trials_before = _engine_trials()
    candidates_before = _search_candidates()
    kernel_before = _kernel_samples()
    serve_before = _serve_plans()
    fleet_before = _fleet_tags()
    adaptive_before = _adaptive_counters()
    start = time.perf_counter()
    result = benchmark.pedantic(fn, iterations=1, rounds=1)
    wall_s = time.perf_counter() - start
    row = {
        "bench": benchmark.name,
        "wall_s": round(wall_s, 4),
        "git_rev": None if _GIT_REV is None else _GIT_REV[:12],
        "fingerprint": _FINGERPRINT,
    }
    deltas = (
        ("engine_trials", "trials_per_s", _engine_trials() - trials_before),
        (
            "search_candidates",
            "search_candidates_per_s",
            _search_candidates() - candidates_before,
        ),
        (
            "kernel_samples",
            "kernel_samples_per_s",
            _kernel_samples() - kernel_before,
        ),
        ("serve_plans", "plans_per_s", _serve_plans() - serve_before),
        ("fleet_tags", "fleet_tags_per_s", _fleet_tags() - fleet_before),
    )
    for count_key, rate_key, delta in deltas:
        if not delta:
            continue
        row[count_key] = delta
        row[rate_key] = round(delta / wall_s, 1) if wall_s > 0 else 0.0
    adaptive_after = _adaptive_counters()
    adaptive_run = adaptive_after[0] - adaptive_before[0]
    adaptive_saved = adaptive_after[1] - adaptive_before[1]
    if adaptive_run or adaptive_saved:
        row["adaptive_trials_run"] = adaptive_run
        row["adaptive_trials_saved"] = adaptive_saved
    if row_extra is not None:
        row.update(row_extra() if callable(row_extra) else row_extra)
    _RUNTIME_ROWS.append(row)
    return result


def pytest_sessionfinish(session, exitstatus):
    if not _RUNTIME_ROWS:
        return
    root = Path(__file__).resolve().parent.parent
    payload = {
        "total_wall_s": round(sum(r["wall_s"] for r in _RUNTIME_ROWS), 4),
        "git_rev": _GIT_REV,
        "env": _ENV,
        "benches": _RUNTIME_ROWS,
    }
    (root / "BENCH_runtime.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    # Graduate the overwrite-in-place snapshot to the append-only history
    # the regression sentinel baselines against.
    from repro.obs.history import append_history, history_entry

    append_history(
        root / "BENCH_history.jsonl", history_entry(payload, env=_ENV)
    )


@pytest.fixture
def emit():
    """Print a reproduced table, clearly delimited, even without -s."""

    def _emit(table) -> None:
        text = table.render() if hasattr(table, "render") else str(table)
        print("\n" + "=" * 72)
        print(text)
        print("=" * 72)

    return _emit
