"""The parallel sweep driver.

Fans a scenario's parameter grid out across ``multiprocessing`` workers
— every grid point is an isolated simulation in its own process with a
fresh :class:`~repro.sim.engine.Environment` — streams results back as
they finish, and reassembles them **in canonical grid order**, so the
merged series are byte-identical to a serial run regardless of worker
count, completion order, dispatch order, or caching. That is the
determinism contract the golden-series tests pin down (see
``docs/EXPERIMENTS.md``).

A point task is ``(scenario, point_index, cfg, ctx, collect_metrics)``.
``ctx`` is the sweep's :class:`~repro.runctx.RunContext`; it reaches a
pool worker with its two modes only. Serial and pooled execution both
bind it around the point (:func:`_run_point_task`), so sweeps behave
identically under both loops, any start method, and any number of
sweeps running side by side in threads. Pool workers re-resolve the
scenario from the registry by name. ``collect_metrics`` additionally
runs the point under a fresh metrics registry and ships its snapshot
back as a **non-canonical** extra on the point row — telemetry never
touches canonical bytes.

Everything around the points is byte-neutral and lives in
:class:`SweepLedger`, the one place the cache, journal and assembly
policy is decided: point-cache hits skip execution, recorded timings
order dispatch longest-first, and every path assembles through
:func:`build_result`. Parallel sweeps run on a persistent
:class:`~repro.experiments.pool.SweepPool` shared across sweeps.
A cross-host shard (:func:`run_shard`) is a ledger journal, and
:func:`merge_shards` prefills one ledger from a set of them.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence, Union

from repro import runctx
from repro.analysis.series import Series
from repro.experiments.cache import (
    PointCache,
    TimingStore,
    load_cached,
    request_key,
    store_cached,
)
from repro.experiments.pool import SweepPool, shared_pool
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.fabric.journal import Journal

__all__ = [
    "ShardError",
    "SweepLedger",
    "SweepResult",
    "build_result",
    "merge_shards",
    "parse_shard_spec",
    "run_shard",
    "run_sweep",
]


@dataclass
class SweepResult:
    """Everything one sweep produced, plus how it was produced.

    ``canonical_json`` covers only run-independent content (no worker
    count, no wall-clock, no per-point timing, no pool/cache metadata),
    which is what persistence writes and what the byte-identity
    guarantees apply to. Each ``points`` row always carries canonical
    ``params``/``values``; executed points add a non-canonical
    ``elapsed_s`` and cache-assembled points a non-canonical
    ``cached`` marker — both stripped by :meth:`canonical_dict`.
    """

    scenario: str
    title: str
    seed: int
    x: str
    xlabel: str
    ylabel: str
    grid: dict[str, list]
    defaults: dict[str, Any]
    points: list[dict[str, Any]] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    workers: int = 1
    elapsed_s: float = 0.0
    #: Multiprocessing start method the sweep actually used; None for
    #: serial/in-process runs. Never part of the canonical bytes.
    start_method: Optional[str] = None
    #: How many grid points actually ran vs. came from the point cache.
    executed_points: int = 0
    cached_points: int = 0

    def canonical_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "title": self.title,
            "seed": self.seed,
            "x": self.x,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "defaults": dict(self.defaults),
            # Strip run metadata (elapsed_s, cached) from the rows: the
            # canonical bytes must not depend on timing or cache state.
            "points": [
                {"params": p["params"], "values": p["values"]}
                for p in self.points
            ],
            "series": [
                {"label": s.label, "xs": s.xs, "ys": s.ys} for s in self.series
            ],
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace; float
        values keep full ``repr`` precision, so equal bytes mean equal
        floats bit for bit."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def pretty_json(self) -> str:
        """The human-readable form of :meth:`canonical_json` — the exact
        bytes persistence writes and the golden tests freeze (one
        definition, so the two cannot drift apart)."""
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SweepResult":
        """Rebuild a result from a canonical dict — a stored cache entry
        or a served payload. Nothing ran locally, so the run metadata
        reflects that: zero workers, every point counted as assembled."""
        points = list(d["points"])
        return cls(
            scenario=d["scenario"],
            title=d["title"],
            seed=d["seed"],
            x=d["x"],
            xlabel=d["xlabel"],
            ylabel=d["ylabel"],
            grid={k: list(v) for k, v in d["grid"].items()},
            defaults=dict(d["defaults"]),
            points=points,
            series=[
                Series(label=s["label"], xs=list(s["xs"]), ys=list(s["ys"]))
                for s in d["series"]
            ],
            workers=0,
            elapsed_s=0.0,
            executed_points=0,
            cached_points=len(points),
        )


def _execute_point(
    sc_or_name: Union[str, Scenario], cfg: Mapping[str, Any], collect: bool
) -> tuple[dict[str, float], float, Optional[dict]]:
    """Run one grid point under the bound run context, optionally with
    telemetry collection.

    Returns ``(values, elapsed_s, metrics_snapshot_or_None)``. With
    ``collect`` the point runs under a fresh metrics registry of its
    own — byte-transparent either way.
    """
    sc = get_scenario(sc_or_name) if isinstance(sc_or_name, str) else sc_or_name
    ctx = runctx.current()
    if collect:
        ctx = replace(ctx, metrics=MetricsRegistry())
    t0 = time.perf_counter()
    with runctx.using(ctx):
        values = dict(sc.run_point(cfg))
    dt = time.perf_counter() - t0
    return values, dt, ctx.metrics.snapshot() if collect else None


def _run_point_task(task: tuple) -> tuple[int, dict[str, float], float, Optional[dict]]:
    """One point task, in a pool worker or in-process: binds the task's
    run context around the point. Returns ``(index, values, elapsed_s,
    metrics)`` so the parent can record per-point cost for straggler
    reporting and (when requested) the point's telemetry snapshot."""
    sc_or_name, idx, cfg, ctx, collect = task
    with runctx.using(ctx):
        values, dt, snap = _execute_point(sc_or_name, cfg, collect)
    return idx, values, dt, snap


def _order_tasks(items: list, estimate: Callable[[Any], Optional[float]]) -> list:
    """Longest-estimated-first dispatch order (stable, so points with no
    recorded cost keep canonical order, ahead of every known point —
    an unknown point might be the longest, and starting it late is the
    one mistake a wide pool cannot recover from). Pure reordering: the
    results still land in canonical slots, so bytes are unaffected."""
    return sorted(
        items,
        key=lambda t: -(e if (e := estimate(t)) is not None else float("inf")),
    )


class SweepLedger:
    """One bound sweep's result slots, and the one place its cache,
    journal and assembly policy is decided.

    :func:`run_sweep`, :func:`~repro.experiments.cache.cached_sweep`,
    :func:`merge_shards` and every job of the serve daemon (``repro
    fleet serve`` included) all fill a ledger and assemble through it; :func:`run_shard` fills
    one part of a ledger and keeps its journal as the output:

    - :meth:`prefill` reads the durable sources in precedence order:
      the whole-sweep cache (a hit is returned and nothing else is
      read), then the journal to resume (a ``fleet serve`` job's or a shard's),
      then the point cache;
    - :meth:`pending` orders the missing points longest recorded cost
      first when a timing store is present;
    - :meth:`accept` takes results first-wins and journals each one;
    - :meth:`result` banks fresh points and timings (:meth:`bank`
      alone is the cancel path), assembles through
      :func:`build_result`, stores the whole sweep, removes the journal.

    ``cache_dir`` adds the whole-sweep cache and, unless passed in, a
    point cache and timing store beside it; :meth:`journal_at` attaches
    a :class:`repro.fabric.journal.Journal`.
    """

    def __init__(self, sc: Scenario, ctx: runctx.RunContext, *,
                 key: Optional[str] = None, cache_dir=None,
                 point_cache=None, timings=None):
        if cache_dir is not None:
            point_cache = PointCache(cache_dir) if point_cache is None else point_cache
            timings = TimingStore(cache_dir) if timings is None else timings
        self.scenario, self.ctx, self._key = sc, ctx, key
        self.cache_dir, self.point_cache, self.timings = cache_dir, point_cache, timings
        self.journal = None
        self.points = sc.points()
        self.total = len(self.points)
        self.results: list[Optional[dict[str, float]]] = [None] * self.total
        self.elapsed: list[Optional[float]] = [None] * self.total
        #: Indices accepted in this run; ``prefilled`` counts the rest.
        self.fresh: list[int] = []
        self.prefilled = 0
        self._point_keys: dict[int, str] = {}
        self._cost_keys: dict[int, str] = {}
        self._t0 = time.perf_counter()

    @property
    def key(self) -> str:
        """The sweep's request key (computed on first use)."""
        if self._key is None:
            self._key = request_key(self.scenario, self.ctx)
        return self._key

    def journal_at(self, path) -> "Journal":
        """Attach a :class:`~repro.fabric.journal.Journal` at ``path``.
        Its header carries the key and the readable request, so
        :func:`merge_shards` can rebuild the sweep from it."""
        from repro.fabric.journal import Journal  # fabric imports this module

        sc, ctx = self.scenario, self.ctx
        self.journal = Journal(Path(path), self.key, sc.name, self.total, request={
            "seed": sc.seed,
            "grid": {k: list(v) for k, v in sc.grid.items()},
            "defaults": dict(sc.defaults),
            "reference_engine": ctx.engine_reference,
            "reference_model": ctx.model_reference,
        })
        return self.journal

    def restore(self, index: int, values: Mapping[str, float],
                elapsed_s: Optional[float] = None) -> None:
        """Fill one point from a durable record (a journal line); it
        counts as prefilled and is never stored again."""
        if self.results[index] is None:
            self.results[index], self.elapsed[index] = dict(values), elapsed_s
            self.prefilled += 1

    def prefill(self) -> Optional[SweepResult]:
        """Read the durable sources; returns the whole-sweep hit, if any."""
        if self.cache_dir is not None:
            hit = load_cached(self.cache_dir, self.scenario, self.key)
            if hit is not None:
                if self.journal is not None:
                    self.journal.remove()
                return hit
        if self.journal is not None:
            self.journal.open()
            for index, (values, elapsed) in self.journal.resumed.items():
                self.restore(index, values, elapsed)
        if self.point_cache is not None:
            for i, cfg in enumerate(self.points):
                if self.results[i] is None:
                    self._point_keys[i], hit = self.point_cache.lookup(
                        self.scenario, cfg, self.ctx)
                    if hit is not None:
                        self.restore(i, hit)
        return None

    def pending(self) -> list[int]:
        """Indices without a result, in dispatch order."""
        pending = [i for i, r in enumerate(self.results) if r is None]
        timings = self.timings
        if timings is None:
            return pending
        for i in pending:
            self._cost_keys[i] = timings.key(self.scenario, self.points[i], self.ctx)
        return _order_tasks(pending, lambda i: timings.estimate(self._cost_keys[i]))

    def tasks(self, collect: bool = False) -> list[tuple]:
        """Point tasks for :meth:`pending`, in dispatch order."""
        return [(self.scenario.name, i, self.points[i], self.ctx, collect)
                for i in self.pending()]

    def accept(self, index: int, values: Mapping[str, float],
               elapsed_s: Optional[float]) -> bool:
        """Take one delivered result, first wins; True when accepted."""
        if self.results[index] is not None:
            return False
        self.results[index], self.elapsed[index] = values, elapsed_s
        self.fresh.append(index)
        if self.journal is not None:
            self.journal.record(index, values, elapsed_s)
        return True

    def execute(self, workers: int, pool: Optional[SweepPool] = None, *,
                progress: Optional[Callable[[int, int], None]] = None,
                collect_metrics: bool = False) -> SweepResult:
        """Run the pending points through :func:`dispatch_tasks`, then
        :meth:`result` (the offline paths; see :func:`run_sweep`)."""
        tasks = self.tasks(collect_metrics)
        done = self.total - len(tasks)
        if progress and done:
            progress(done, self.total)
        metrics: Optional[list] = [None] * self.total if collect_metrics else None
        start_method, stream = dispatch_tasks(self.scenario, tasks, workers, pool)
        for idx, values, dt, snap in stream:
            self.accept(idx, values, dt)
            if metrics is not None:
                metrics[idx] = snap
            done += 1
            if progress:
                progress(done, self.total)
        return self.result(workers=pool.workers if pool is not None else workers,
                           start_method=start_method, point_metrics=metrics)

    def bank(self) -> None:
        """Store the fresh points and their timings. A worker-side
        point-cache hit reports ``elapsed_s`` 0.0: not a cost, so not
        recorded."""
        for i in self.fresh:  # prefill and pending() keyed every one
            if self.point_cache is not None:
                self.point_cache.store(self.scenario.name, self._point_keys[i],
                                       self.results[i])
            if self.timings is not None and self.elapsed[i]:
                self.timings.record(self._cost_keys[i], self.elapsed[i])
        if self.timings is not None:
            self.timings.flush()

    def result(self, *, workers: int, start_method: Optional[str] = None,
               elapsed_s: Optional[float] = None,
               point_metrics: Optional[list] = None) -> SweepResult:
        """Bank, assemble, store the whole sweep, remove the journal."""
        self.bank()
        if elapsed_s is None:
            elapsed_s = time.perf_counter() - self._t0
        # build_result through the module global: perfbench wraps it.
        result = build_result(
            self.scenario, self.results, self.elapsed, workers=workers,
            elapsed_s=elapsed_s, start_method=start_method,
            executed_points=len(self.fresh), cached_points=self.prefilled,
            point_metrics=point_metrics,
        )
        if self.cache_dir is not None:
            store_cached(result, self.cache_dir, self.key)
        if self.journal is not None:
            self.journal.remove()
        return result


def dispatch_tasks(
    sc: Scenario,
    tasks: list[tuple],
    workers: int,
    pool: Optional[SweepPool],
):
    """The one serial-vs-pooled execution split every offline sweep
    path uses (``run_sweep``, ``cached_sweep`` and ``run_shard``).
    Returns ``(start_method, iterator of (index, values, elapsed_s,
    metrics))``: in-process execution for one worker or a single task
    (``start_method`` None), otherwise a persistent pool — the one
    passed in, or a shared pool capped at the task count so narrow
    grids never fork idle workers."""
    if (pool.workers if pool is not None else workers) == 1 or len(tasks) <= 1:
        # In-process tasks carry the scenario itself, which need not be
        # registered.
        return None, (_run_point_task((sc, *t[1:])) for t in tasks)
    try:
        registered = get_scenario(sc.name)
    except KeyError:
        registered = None
    if registered is None or registered.run_point is not sc.run_point:
        raise ValueError(
            f"scenario {sc.name!r} must be registered to sweep with "
            f"workers > 1 (workers re-resolve it by name)"
        )
    if pool is None:
        pool = shared_pool(min(workers, len(tasks)))
    # run_tasks (not imap_unordered): survives a worker process killed
    # mid-point by respawning the pool and re-dispatching lost tasks.
    return pool.start_method, pool.run_tasks(_run_point_task, tasks)


def run_sweep(
    scenario: Union[str, Scenario],
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    pool: Optional[SweepPool] = None,
    point_cache=None,
    timings=None,
    collect_metrics: bool = False,
) -> SweepResult:
    """Run one scenario's full grid and aggregate deterministically.

    Parameters
    ----------
    scenario: registry name or a :class:`Scenario` instance (instances
        must be registered when running in parallel, so worker
        processes can resolve them by name).
    overrides: grid/default replacements (see
        :meth:`Scenario.with_overrides`).
    seed: root seed override, threaded into every point's ``cfg``.
    workers: process count; ``1`` runs serially in-process. Results are
        byte-identical across any worker count.
    progress: optional ``(done, total)`` callback, called as points
        finish (in completion order; cache hits count as already done).
    pool: an explicit :class:`SweepPool` to dispatch on (its worker
        count takes precedence over ``workers``; the pool is left open
        for reuse). Default: the session-shared persistent pool.
    point_cache: optional per-point cache
        (:class:`repro.experiments.cache.PointCache`); hits skip
        execution entirely, fresh results are stored back.
    timings: optional per-point cost store
        (:class:`repro.experiments.cache.TimingStore`); recorded costs
        order dispatch longest-first and fresh costs are recorded.
    collect_metrics: run every executed point under the telemetry layer
        (:mod:`repro.obs`) and attach each point's registry snapshot to
        its row as a non-canonical ``metrics`` entry (``repro sweep
        -v`` surfaces the aggregate). Canonical bytes are unchanged.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    sc = sc.with_overrides(overrides, seed=seed)
    ledger = SweepLedger(sc, runctx.current(), point_cache=point_cache,
                         timings=timings)
    ledger.prefill()
    return ledger.execute(workers, pool, progress=progress,
                          collect_metrics=collect_metrics)


class ShardError(ValueError):
    """A malformed shard spec, an unreadable journal, or an unsafe merge."""


def parse_shard_spec(text: str) -> tuple[int, int]:
    """Parse ``I/N`` (shard index ``I`` of ``N``, zero-based)."""
    head, sep, tail = text.partition("/")
    if sep and head.isdigit() and tail.isdigit() and int(head) < int(tail):
        return int(head), int(tail)
    raise ShardError(f"malformed --shard {text!r}; expected I/N with "
                     f"0 <= I < N, e.g. 0/4")


_SHARD_NAME = re.compile(r"(.+)\.shard-(\d+)-of-(\d+)\.jsonl")


def run_shard(
    scenario: Union[str, Scenario],
    index: int,
    count: int,
    outdir,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    workers: int = 1,
    pool: Optional[SweepPool] = None,
) -> SweepLedger:
    """Run the points ``j % count == index`` (round-robin, so a heavy
    grid tail spreads across shards) into the journal
    ``outdir/<scenario>.shard-<index>-of-<count>.jsonl``, the shard's
    output: closed, not removed. A journal of the same request left by
    a killed run is resumed, so only its missing points run. Returns
    the ledger.
    """
    if not 0 <= index < count:
        raise ShardError(f"invalid shard {index}/{count}")
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    ledger = SweepLedger(sc.with_overrides(overrides, seed=seed), runctx.current())
    journal = ledger.journal_at(
        Path(outdir) / f"{sc.name}.shard-{index}-of-{count}.jsonl")
    ledger.prefill()
    try:
        tasks = [t for t in ledger.tasks() if t[1] % count == index]
        _, stream = dispatch_tasks(ledger.scenario, tasks, workers, pool)
        for j, values, dt, _snap in stream:
            ledger.accept(j, values, dt)
    finally:
        journal.close()
    return ledger


def merge_shards(dirs: Sequence[Path]) -> SweepResult:
    """Reassemble a complete shard set into one :class:`SweepResult`,
    byte-identical to a serial run: rebuild the sweep from the journal
    header, recompute its request key, prefill one ledger from every
    journal (:meth:`SweepLedger.restore`) and assemble it. Shards of
    another seed, mode, grid or code version are a key mismatch; any
    inconsistency raises :class:`ShardError`.
    """
    from repro.fabric.journal import read_journal  # fabric imports this module

    header: dict[str, Any] = {}
    shards: dict[int, dict] = {}
    for d in dirs:
        found = [(p, m) for p in sorted(Path(d).glob("*.jsonl"))
                 if (m := _SHARD_NAME.fullmatch(p.name))]
        if not found:
            raise ShardError(f"no shard journals (*.shard-I-of-N.jsonl) in {d}")
        for path, name in found:
            try:
                head, points = read_journal(path)
            except (OSError, ValueError) as exc:
                raise ShardError(f"unreadable shard journal {path}: {exc}") from None
            head["shard_count"] = int(name[3])
            header = header or head
            differ = sorted(k for k in head.keys() | header.keys()
                            if head.get(k) != header.get(k))
            if differ:
                raise ShardError(
                    f"shard mismatch on {', '.join(differ)}: {path} is not "
                    f"of the first journal's sweep request; refusing to merge")
            if int(name[2]) in shards:
                raise ShardError(f"duplicate shard {name[2]}/{name[3]}: {path}")
            shards[int(name[2])] = points
    count = header["shard_count"]
    missing = sorted(set(range(count)) - set(shards))
    if missing:
        raise ShardError(f"incomplete shard set for {header['scenario']!r}: "
                         f"missing shard(s) {missing} of {count}")
    try:
        base = get_scenario(header["scenario"])
        # Canonical point order is row-major over the declared grid
        # order; the header's keys are sorted, so rebuild in that order.
        sc = replace(base, grid={k: tuple(header["grid"][k]) for k in base.grid},
                     defaults=dict(header["defaults"]), seed=int(header["seed"]))
        ledger = SweepLedger(sc, runctx.RunContext(
            engine_reference=header["reference_engine"],
            model_reference=header["reference_model"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardError(f"cannot rebuild the sweep from its journal "
                         f"header: {exc!r}") from None
    if ledger.key != header["request_key"]:
        raise ShardError(
            f"request-key mismatch for {sc.name!r}: the shards ran under "
            f"other code or calibration than this checkout; re-run them or "
            f"merge on a matching checkout")
    for points in shards.values():
        for j, (values, elapsed) in points.items():
            ledger.restore(j, values, elapsed)
    absent = ledger.pending()
    if absent:
        raise ShardError(
            f"no values for point(s) {absent}; re-run shard(s) "
            f"{sorted({j % count for j in absent})} of {count} to resume them")
    # Nothing ran here (workers 0): the shards' point time is the sweep's.
    return ledger.result(workers=0, elapsed_s=sum(e for e in ledger.elapsed if e))


def build_result(
    sc: Scenario,
    results: list,
    point_elapsed: list,
    *,
    workers: int,
    elapsed_s: float,
    start_method: Optional[str] = None,
    executed_points: int = 0,
    cached_points: int = 0,
    point_metrics: Optional[list] = None,
) -> SweepResult:
    """Assemble per-point values into a :class:`SweepResult`.

    The one definition of how canonical rows and series come together,
    called by :meth:`SweepLedger.result` on every path — so served,
    sharded and fleet payloads are byte-identical to offline sweeps by
    construction, not by parallel maintenance.
    ``results`` holds one value dict per canonical grid point; a row
    whose ``point_elapsed`` entry is None is marked cache-assembled.
    ``point_metrics`` (when given) attaches each point's telemetry
    snapshot as a non-canonical ``metrics`` entry on its row —
    :meth:`SweepResult.canonical_dict` strips it like every other bit
    of run metadata.
    """
    series = sc.assemble(results)  # raises if any point went missing
    point_rows = []
    for i, (cfg, values) in enumerate(zip(sc.points(), results)):
        row: dict[str, Any] = {
            "params": {k: v for k, v in cfg.items() if k != "seed"},
            "values": values,
        }
        if point_elapsed[i] is not None:
            row["elapsed_s"] = round(point_elapsed[i], 6)
        else:
            row["cached"] = True
        if point_metrics is not None and point_metrics[i] is not None:
            row["metrics"] = point_metrics[i]
        point_rows.append(row)
    return SweepResult(
        scenario=sc.name,
        title=sc.format_title(),
        seed=sc.seed,
        x=sc.x,
        xlabel=sc.xlabel,
        ylabel=sc.ylabel,
        grid={k: list(v) for k, v in sc.grid.items()},
        defaults=dict(sc.defaults),
        points=point_rows,
        series=series,
        workers=workers,
        elapsed_s=elapsed_s,
        start_method=start_method,
        executed_points=executed_points,
        cached_points=cached_points,
    )
