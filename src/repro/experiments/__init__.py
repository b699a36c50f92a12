"""Declarative experiments: scenario registry + parallel sweep driver.

Public surface:

- :class:`~repro.experiments.scenario.Scenario` — one named experiment
  as data (grid, defaults, seed, curves, point function).
- :func:`~repro.experiments.registry.get_scenario`,
  :func:`~repro.experiments.registry.register`,
  :func:`~repro.experiments.registry.scenario_names` — the registry all
  figures and extension studies live in.
- :func:`~repro.experiments.driver.run_sweep` — fan a grid across
  workers and aggregate deterministically (byte-identical to serial);
  :class:`~repro.experiments.driver.SweepLedger` — the one cache,
  journal and assembly policy every sweep path shares.
- :class:`~repro.experiments.pool.SweepPool` /
  :func:`~repro.experiments.pool.shared_pool` — persistent worker pools
  that amortize fork cost across sweeps (``fork`` where available,
  ``spawn`` otherwise).
- :func:`~repro.experiments.cache.cached_sweep` — whole-sweep *and*
  per-point result caching; incremental re-sweeps after grid tweaks.
- :func:`~repro.experiments.driver.run_shard` /
  :func:`~repro.experiments.driver.merge_shards` — cross-host sharded
  sweeps: each shard writes a ledger journal, and a merge prefills one
  ledger from them, byte-identically to a serial run.
- :func:`~repro.experiments.persistence.save_sweep` — JSON/CSV under
  ``results/``.

See ``docs/EXPERIMENTS.md`` for the determinism contract, the
sweeps-at-scale machinery, and how to add a scenario.
"""

from repro.experiments.cache import (
    PointCache,
    TimingStore,
    cached_sweep,
    point_key,
    prune_cache,
    request_key,
)
from repro.experiments.compare import DriftReport, compare_result_to_dir
from repro.experiments.driver import SweepLedger, SweepResult, run_sweep
from repro.experiments.persistence import DEFAULT_RESULTS_DIR, save_sweep, sweep_csv
from repro.experiments.pool import SweepPool, close_shared_pools, shared_pool
from repro.experiments.registry import (
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.experiments.scenario import GridError, Scenario, parse_grid_overrides

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "DriftReport",
    "GridError",
    "PointCache",
    "Scenario",
    "SweepLedger",
    "SweepPool",
    "SweepResult",
    "TimingStore",
    "all_scenarios",
    "cached_sweep",
    "close_shared_pools",
    "compare_result_to_dir",
    "get_scenario",
    "parse_grid_overrides",
    "point_key",
    "prune_cache",
    "register",
    "request_key",
    "run_sweep",
    "save_sweep",
    "scenario_names",
    "shared_pool",
    "sweep_csv",
]
