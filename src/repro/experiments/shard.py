"""Cross-host sharded sweeps.

One sweep can now span machines: ``repro sweep <scenario> --shard i/N``
runs a **deterministic partition** of the scenario's grid (point ``j``
belongs to shard ``j % N`` — round-robin, so paper grids whose cost
grows along the x axis spread their heavy tail across shards) and
writes a shard manifest; ``repro sweep --merge DIR...`` reassembles any
complete shard set into a :class:`SweepResult` whose
``canonical_json()``/``sha256()`` is **byte-identical to a serial
run**.

The manifest carries everything needed to make merging safe: the
scenario request (grid, defaults, seed), the engine/model modes the
shard ran under, and the full :func:`~repro.experiments.cache.request_key`
— which also fingerprints the code version and calibration profile.
:func:`merge_shards` refuses mismatched shards (different seeds, modes,
grids, shard counts, duplicate or missing shards) and refuses shard
sets whose request key no longer matches the merging host's code, so a
merge can never silently mix results from two different experiment
definitions or two different simulator versions.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro import runctx
from repro.experiments.driver import SweepLedger, SweepResult, dispatch_tasks
from repro.experiments.pool import SweepPool
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario

__all__ = [
    "ShardError",
    "merge_shards",
    "parse_shard_spec",
    "run_shard",
    "shard_filename",
    "shard_indices",
    "write_shard",
]

_SHARD_FORMAT = 1
"""Shard manifest schema version."""


class ShardError(ValueError):
    """Malformed shard specs, unreadable manifests, or unsafe merges."""


def parse_shard_spec(text: str) -> tuple[int, int]:
    """Parse ``I/N`` (shard index ``I`` of ``N``, zero-based)."""
    head, sep, tail = text.partition("/")
    try:
        index, count = int(head), int(tail)
    except ValueError:
        raise ShardError(
            f"malformed --shard {text!r}; expected I/N, e.g. 0/4"
        ) from None
    if not sep or count < 1 or not 0 <= index < count:
        raise ShardError(
            f"malformed --shard {text!r}; need 0 <= I < N, e.g. 0/4"
        )
    return index, count


def shard_indices(num_points: int, index: int, count: int) -> list[int]:
    """The canonical point indices belonging to one shard.

    Round-robin (point ``j`` -> shard ``j % count``): deterministic,
    independent of any timing data, so every host computes the same
    partition from the scenario definition alone.
    """
    if count < 1 or not 0 <= index < count:
        raise ShardError(f"invalid shard {index}/{count}")
    return list(range(index, num_points, count))


def shard_filename(scenario: str, index: int, count: int) -> str:
    return f"{scenario}.shard-{index}-of-{count}.json"


def run_shard(
    scenario: Union[str, Scenario],
    index: int,
    count: int,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    workers: int = 1,
    pool: Optional[SweepPool] = None,
) -> dict[str, Any]:
    """Execute one shard's points and return its manifest (a plain JSON-
    serializable dict; persist with :func:`write_shard`)."""
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    sc = sc.with_overrides(overrides, seed=seed)
    ctx = runctx.current()
    ledger = SweepLedger(sc, ctx)
    mine = shard_indices(ledger.total, index, count)

    t0 = time.perf_counter()
    tasks = [(sc.name, j, ledger.points[j], ctx, False) for j in mine]
    _, stream = dispatch_tasks(sc, tasks, workers, pool)
    for j, values, dt, _snap in stream:
        ledger.accept(j, values, dt)

    return {
        "format": _SHARD_FORMAT,
        "scenario": sc.name,
        "shard_index": index,
        "shard_count": count,
        "request_key": ledger.key,
        "seed": sc.seed,
        "reference_engine": ctx.engine_reference,
        "reference_model": ctx.model_reference,
        "grid": {k: list(v) for k, v in sc.grid.items()},
        "defaults": dict(sc.defaults),
        "point_indices": mine,
        # Keys are strings (JSON objects force it); merge converts back.
        "results": {str(j): ledger.results[j] for j in mine},
        "point_elapsed_s": {str(j): round(ledger.elapsed[j], 6) for j in mine},
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }


def write_shard(manifest: dict[str, Any], outdir: Path) -> Path:
    """Persist a manifest as ``<scenario>.shard-<i>-of-<N>.json``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / shard_filename(
        manifest["scenario"], manifest["shard_index"], manifest["shard_count"]
    )
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _load_manifests(dirs: Sequence[Path]) -> list[dict[str, Any]]:
    manifests = []
    for d in dirs:
        found = sorted(Path(d).glob("*.shard-*-of-*.json"))
        if not found:
            raise ShardError(f"no shard manifests (*.shard-I-of-N.json) in {d}")
        for path in found:
            try:
                manifest = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                raise ShardError(f"unreadable shard manifest {path}: {exc}") from None
            if manifest.get("format") != _SHARD_FORMAT:
                raise ShardError(
                    f"{path}: unsupported shard format "
                    f"{manifest.get('format')!r} (expected {_SHARD_FORMAT})"
                )
            manifests.append(manifest)
    return manifests


#: Manifest fields every shard of one sweep must agree on. request_key
#: alone already covers seed/modes/grid/code, but checking the readable
#: fields first gives actionable error messages.
_CONSISTENT_FIELDS = (
    "scenario",
    "shard_count",
    "seed",
    "reference_engine",
    "reference_model",
    "grid",
    "defaults",
    "request_key",
)


def merge_shards(dirs: Sequence[Path]) -> SweepResult:
    """Reassemble a complete shard set into one :class:`SweepResult`.

    The merged result is byte-identical to running the sweep serially
    on one host: values round-trip through JSON at full ``repr``
    precision, points land in canonical grid order, and assembly goes
    through the same :class:`SweepLedger` every other path uses (shard
    points count as prefilled). Raises :class:`ShardError` on any
    inconsistency.
    """
    manifests = _load_manifests(dirs)
    first = manifests[0]
    for m in manifests[1:]:
        for fld in _CONSISTENT_FIELDS:
            if m[fld] != first[fld]:
                raise ShardError(
                    f"shard mismatch on {fld!r}: shard "
                    f"{m['shard_index']}/{m['shard_count']} has {m[fld]!r}, "
                    f"shard {first['shard_index']}/{first['shard_count']} "
                    f"has {first[fld]!r} — refusing to merge results from "
                    f"different sweep requests"
                )
    count = first["shard_count"]
    seen: set[int] = set()
    for m in manifests:
        if m["shard_index"] in seen:
            raise ShardError(f"duplicate shard {m['shard_index']}/{count}")
        seen.add(m["shard_index"])
    missing = sorted(set(range(count)) - seen)
    if missing:
        raise ShardError(
            f"incomplete shard set for {first['scenario']!r}: missing "
            f"shard(s) {missing} of {count}"
        )

    # Rebuild the swept scenario from the registry + the manifest's
    # grid/defaults/seed, then verify the recomputed request key matches
    # the shards' — catching code/calibration drift between the hosts
    # that ran the shards and the host merging them.
    try:
        base = get_scenario(first["scenario"])
    except KeyError as exc:
        raise ShardError(str(exc)) from None
    if set(first["grid"]) != set(base.grid):
        raise ShardError(
            f"shard grid parameters {sorted(first['grid'])} do not match "
            f"the registered scenario's {sorted(base.grid)}"
        )
    sc = replace(
        base,
        # Manifests are JSON with sorted keys; canonical point order is
        # row-major over the *declared* grid order, so rebuild the grid
        # in the registered scenario's key order.
        grid={k: tuple(first["grid"][k]) for k in base.grid},
        defaults=dict(first["defaults"]),
        seed=int(first["seed"]),
    )
    ledger = SweepLedger(sc, runctx.RunContext(
        engine_reference=first["reference_engine"],
        model_reference=first["reference_model"],
    ))
    expected = ledger.key
    if expected != first["request_key"]:
        raise ShardError(
            f"request-key mismatch for {sc.name!r}: the shards were "
            f"produced under a different code/calibration state than this "
            f"host (got {first['request_key'][:16]}, expected "
            f"{expected[:16]}); re-run the shards or merge on a matching "
            f"checkout"
        )

    for m in manifests:
        expected_indices = shard_indices(ledger.total, m["shard_index"], count)
        if list(m["point_indices"]) != expected_indices:
            raise ShardError(
                f"shard {m['shard_index']}/{count} covers points "
                f"{m['point_indices']}, expected {expected_indices} — the "
                f"partition is not the canonical round-robin split"
            )
        elapsed = m.get("point_elapsed_s", {})
        for j_str, values in m["results"].items():
            dt = elapsed.get(j_str)
            ledger.restore(int(j_str), values, None if dt is None else float(dt))
    absent = [i for i, r in enumerate(ledger.results) if r is None]
    if absent:
        raise ShardError(
            f"shard set covers the grid incompletely: no values for "
            f"point(s) {absent}"
        )
    # Nothing ran here (workers 0): the shards did the work, and their
    # summed wall-clock is the sweep's.
    return ledger.result(
        workers=0,
        elapsed_s=sum(float(m["elapsed_s"]) for m in manifests),
    )
