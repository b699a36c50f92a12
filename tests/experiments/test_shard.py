"""Cross-host sharded sweeps: deterministic partitions, byte-identical
merges in every engine/model mode, and refusal of unsafe merges."""

import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runctx
from repro.cli import main as cli_main
from repro.experiments import get_scenario, run_sweep
from repro.experiments.shard import (
    ShardError,
    merge_shards,
    parse_shard_spec,
    run_shard,
    shard_indices,
    write_shard,
)


# -- specs and partitions ----------------------------------------------------

def test_parse_shard_spec():
    assert parse_shard_spec("0/4") == (0, 4)
    assert parse_shard_spec("3/4") == (3, 4)
    for bad in ("4/4", "-1/4", "1/0", "x/4", "2", "1/2/3", "/"):
        with pytest.raises(ShardError):
            parse_shard_spec(bad)


def test_shard_indices_partition_the_grid():
    for points in (1, 7, 12):
        for count in (1, 2, 3, 5):
            covered = []
            for i in range(count):
                part = shard_indices(points, i, count)
                assert part == sorted(part)
                covered.extend(part)
            assert sorted(covered) == list(range(points))  # disjoint cover
    with pytest.raises(ShardError):
        shard_indices(5, 2, 2)


# -- merge determinism -------------------------------------------------------

def _shard_and_merge(scenario, count, overrides=None, order=None, seed=None):
    manifests = [
        run_shard(scenario, i, count, overrides, seed=seed, workers=1)
        for i in range(count)
    ]
    if order is not None:
        manifests = [manifests[i] for i in order]
    with tempfile.TemporaryDirectory() as td:
        dirs = [write_shard(m, Path(td) / f"s{i}").parent
                for i, m in enumerate(manifests)]
        return merge_shards(dirs)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), count=st.integers(min_value=1, max_value=5))
def test_any_partition_any_merge_order_reproduces_serial_sha(data, count):
    """The tentpole property: every round-robin partition of the grid,
    merged in any shard order, lands on the serial sha256."""
    order = data.draw(st.permutations(range(count)))
    serial = run_sweep("_test_synth", workers=1)
    merged = _shard_and_merge("_test_synth", count, order=order)
    assert merged.sha256() == serial.sha256()
    assert merged.canonical_json() == serial.canonical_json()


@pytest.mark.parametrize("engine_ref", [False, True])
@pytest.mark.parametrize("model_ref", [False, True])
def test_shard_merge_parity_real_scenario_all_modes(engine_ref, model_ref):
    """A real simulated scenario (reduced fig8 grid) shards and merges
    byte-identically under every engine-mode x model-mode combination;
    the manifests record the modes they ran under."""
    overrides = {"nodes": [2, 4], "samples": 1e9}
    ctx = replace(runctx.current(), engine_reference=engine_ref,
                  model_reference=model_ref)
    with runctx.using(ctx):
        serial = run_sweep("fig8", overrides, workers=1)
        merged = _shard_and_merge("fig8", 2, overrides)
    assert merged.sha256() == serial.sha256()


def test_merge_result_carries_scenario_metadata():
    serial = run_sweep("_test_synth", {"k": [1, 3, 5]}, seed=77)
    merged = _shard_and_merge("_test_synth", 3, {"k": [1, 3, 5]}, seed=77)
    assert merged.seed == 77
    assert merged.grid == {"k": [1, 3, 5]}
    assert merged.workers == 0  # nothing ran on the merging host
    assert merged.pretty_json() == serial.pretty_json()


def test_shard_manifest_contents(tmp_path):
    manifest = run_shard("_test_synth", 1, 4, workers=1)
    assert manifest["point_indices"] == [1, 5]
    assert manifest["shard_index"] == 1 and manifest["shard_count"] == 4
    assert set(manifest["results"]) == {"1", "5"}
    path = write_shard(manifest, tmp_path)
    assert path.name == "_test_synth.shard-1-of-4.json"
    assert json.loads(path.read_text())["format"] == 1


# -- unsafe merges are refused -----------------------------------------------

def _write_set(tmp_path, manifests):
    return [write_shard(m, tmp_path / f"d{i}").parent
            for i, m in enumerate(manifests)]


def test_merge_refuses_seed_mismatch(tmp_path):
    dirs = _write_set(tmp_path, [
        run_shard("_test_synth", 0, 2, workers=1),
        run_shard("_test_synth", 1, 2, seed=999, workers=1),
    ])
    with pytest.raises(ShardError, match="mismatch"):
        merge_shards(dirs)


def test_merge_refuses_mode_mismatch(tmp_path):
    m0 = run_shard("_test_synth", 0, 2, workers=1)
    with runctx.using(replace(runctx.current(), engine_reference=True)):
        m1 = run_shard("_test_synth", 1, 2, workers=1)
    with pytest.raises(ShardError, match="mismatch"):
        merge_shards(_write_set(tmp_path, [m0, m1]))


def test_merge_refuses_incomplete_and_duplicate_sets(tmp_path):
    m0 = run_shard("_test_synth", 0, 3, workers=1)
    with pytest.raises(ShardError, match="missing shard"):
        merge_shards(_write_set(tmp_path / "inc", [m0]))
    with pytest.raises(ShardError, match="duplicate shard"):
        merge_shards(_write_set(tmp_path / "dup", [m0, m0]))


def test_merge_refuses_code_drift(tmp_path, monkeypatch):
    import repro.experiments.cache as cache_mod

    dirs = _write_set(tmp_path, [run_shard("_test_synth", 0, 1, workers=1)])
    monkeypatch.setattr(cache_mod, "_code_version", lambda: "deadbeef")
    with pytest.raises(ShardError, match="request-key mismatch"):
        merge_shards(dirs)


def test_merge_refuses_empty_dir(tmp_path):
    with pytest.raises(ShardError, match="no shard manifests"):
        merge_shards([tmp_path])


# -- CLI ---------------------------------------------------------------------

def _cli(*argv):
    buf = io.StringIO()
    code = cli_main(list(argv), out=buf)
    return code, buf.getvalue()


def test_cli_shard_merge_roundtrip(tmp_path):
    serial = run_sweep("_test_synth", workers=1)
    for i in range(2):
        code, text = _cli("sweep", "_test_synth", "--shard", f"{i}/2",
                          "--out", str(tmp_path / f"s{i}"))
        assert code == 0
        assert f"shard {i}/2" in text
    code, text = _cli("sweep", "--merge", str(tmp_path / "s0"),
                      str(tmp_path / "s1"), "--out", str(tmp_path / "merged"))
    assert code == 0
    assert "merged 2 shard dir(s)" in text
    written = (tmp_path / "merged" / "_test_synth.json").read_text()
    assert written == serial.pretty_json()


def test_cli_merge_mismatch_exits_nonzero(tmp_path):
    _cli("sweep", "_test_synth", "--shard", "0/2", "--out", str(tmp_path / "s0"))
    _cli("sweep", "_test_synth", "--shard", "1/2", "--seed", "999",
         "--out", str(tmp_path / "s1"))
    code, text = _cli("sweep", "--merge", str(tmp_path / "s0"),
                      str(tmp_path / "s1"))
    assert code == 2
    assert "error:" in text and "mismatch" in text


def test_cli_shard_spec_errors(tmp_path):
    code, text = _cli("sweep", "_test_synth", "--shard", "9/2",
                      "--out", str(tmp_path))
    assert code == 2 and "malformed --shard" in text
    code, text = _cli("sweep", "_test_synth", "--shard", "0/2",
                      "--merge", str(tmp_path), "--out", str(tmp_path))
    assert code == 2 and "one at a time" in text


def test_cli_shard_refuses_flags_it_cannot_honor(tmp_path):
    """--compare/--cache/--no-save on a partial shard would be silently
    meaningless; the CLI rejects the combination instead."""
    for flag in (["--compare", str(tmp_path)], ["--cache"], ["--no-save"]):
        code, text = _cli("sweep", "_test_synth", "--shard", "0/2",
                          "--out", str(tmp_path), *flag)
        assert code == 2 and "only writes a shard manifest" in text
    assert not list(tmp_path.glob("*.shard-*"))  # nothing was written
