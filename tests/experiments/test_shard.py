"""Cross-host sharded sweeps: each shard writes a ledger journal, a
merge prefills one ledger from a complete set of them. Pinned here:
deterministic partitions, byte-identical merges in every engine/model
mode, refusal of unsafe merges, and the resume a journal gives a
killed shard."""

import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runctx
from repro.cli import main as cli_main
from repro.experiments import get_scenario, run_sweep
from repro.experiments.driver import (
    ShardError,
    merge_shards,
    parse_shard_spec,
    run_shard,
)
from repro.fabric import CoordinatorChaos, FleetError, run_chaos_fleet
from repro.fabric.journal import read_journal


def _journal(outdir, index, count, scenario="_test_synth"):
    return Path(outdir) / f"{scenario}.shard-{index}-of-{count}.jsonl"


# -- specs and partitions ----------------------------------------------------

def test_parse_shard_spec():
    assert parse_shard_spec("0/4") == (0, 4)
    assert parse_shard_spec("3/4") == (3, 4)
    for bad in ("4/4", "-1/4", "1/0", "x/4", "2", "1/2/3", "/"):
        with pytest.raises(ShardError):
            parse_shard_spec(bad)


def test_shard_indices_partition_the_grid(tmp_path):
    """Shard ``i`` of ``N`` journals exactly the points ``j % N == i``,
    so the shards of any count cover the grid disjointly."""
    for points in (1, 7, 12):
        for count in (1, 2, 3, 5):
            covered = []
            for i in range(count):
                out = tmp_path / f"p{points}-n{count}"
                run_shard("_test_synth", i, count, out,
                          {"k": list(range(points))})
                _, journaled = read_journal(_journal(out, i, count))
                assert sorted(journaled) == list(range(i, points, count))
                covered.extend(journaled)
            assert sorted(covered) == list(range(points))  # disjoint cover
    with pytest.raises(ShardError):
        run_shard("_test_synth", 2, 2, tmp_path / "bad")


# -- merge determinism -------------------------------------------------------

def _shard_and_merge(scenario, count, overrides=None, order=None, seed=None):
    order = range(count) if order is None else order
    with tempfile.TemporaryDirectory() as td:
        for i in range(count):
            run_shard(scenario, i, count, Path(td) / f"s{i}", overrides,
                      seed=seed, workers=1)
        return merge_shards([Path(td) / f"s{i}" for i in order])


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
    the journal headers record the modes the shards ran under."""
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
    """A shard's output is its journal: the header carries the key and
    the readable request, one line per point of the shard follows."""
    ledger = run_shard("_test_synth", 1, 4, tmp_path, workers=1)
    assert ledger.journal.path == _journal(tmp_path, 1, 4)
    header, points = read_journal(ledger.journal.path)
    assert header["format"] == 1
    assert header["request_key"] == ledger.key
    assert header["scenario"] == "_test_synth" and header["total"] == 9
    assert header["grid"] == {"k": list(range(9))}
    assert header["defaults"] == {"scale": 3.0}
    assert header["seed"] == get_scenario("_test_synth").seed
    assert header["reference_engine"] is False
    assert header["reference_model"] is False
    assert sorted(points) == [1, 5]
    assert points[5][0] == run_sweep("_test_synth").points[5]["values"]


# -- unsafe merges are refused -----------------------------------------------

def test_merge_refuses_seed_mismatch(tmp_path):
    run_shard("_test_synth", 0, 2, tmp_path / "d0", workers=1)
    run_shard("_test_synth", 1, 2, tmp_path / "d1", seed=999, workers=1)
    with pytest.raises(ShardError, match="mismatch.*seed"):
        merge_shards([tmp_path / "d0", tmp_path / "d1"])


def test_merge_refuses_mode_mismatch(tmp_path):
    run_shard("_test_synth", 0, 2, tmp_path / "d0", workers=1)
    with runctx.using(replace(runctx.current(), engine_reference=True)):
        run_shard("_test_synth", 1, 2, tmp_path / "d1", workers=1)
    with pytest.raises(ShardError, match="mismatch.*reference_engine"):
        merge_shards([tmp_path / "d0", tmp_path / "d1"])


def test_merge_refuses_grid_mismatch(tmp_path):
    run_shard("_test_synth", 0, 2, tmp_path / "d0", workers=1)
    run_shard("_test_synth", 1, 2, tmp_path / "d1", {"k": [1, 2]}, workers=1)
    with pytest.raises(ShardError, match="mismatch.*grid"):
        merge_shards([tmp_path / "d0", tmp_path / "d1"])


def test_merge_refuses_incomplete_and_duplicate_sets(tmp_path):
    run_shard("_test_synth", 0, 3, tmp_path / "d0", workers=1)
    run_shard("_test_synth", 0, 3, tmp_path / "d1", workers=1)
    with pytest.raises(ShardError, match="missing shard"):
        merge_shards([tmp_path / "d0"])
    with pytest.raises(ShardError, match="duplicate shard"):
        merge_shards([tmp_path / "d0", tmp_path / "d1"])


def test_merge_refuses_code_drift(tmp_path, monkeypatch):
    import repro.experiments.cache as cache_mod

    run_shard("_test_synth", 0, 1, tmp_path, workers=1)
    monkeypatch.setattr(cache_mod, "_code_version", lambda: "deadbeef")
    with pytest.raises(ShardError, match="request-key mismatch"):
        merge_shards([tmp_path])


def test_merge_refuses_empty_dir(tmp_path):
    with pytest.raises(ShardError, match="no shard journals"):
        merge_shards([tmp_path])


# -- what journals add: resume, torn tails, one header format ----------------

def test_killed_shard_resumes_only_missing_points(tmp_path):
    """A shard killed after 2 of its 5 points keeps them in its journal;
    the re-run executes only the other 3, and the merge is
    sha256-equal to the serial sweep."""
    synth = get_scenario("_test_synth")
    done = []

    def dies_after_two(cfg):
        if len(done) == 2:
            raise RuntimeError("killed")
        done.append(cfg["k"])
        return synth.run_point(cfg)

    dying = replace(synth, run_point=dies_after_two)
    with pytest.raises(RuntimeError, match="killed"):
        run_shard(dying, 0, 2, tmp_path / "s0")
    assert sorted(read_journal(_journal(tmp_path / "s0", 0, 2))[1]) == [0, 2]

    rerun = run_shard("_test_synth", 0, 2, tmp_path / "s0")
    assert rerun.prefilled == 2
    assert sorted(rerun.fresh) == [4, 6, 8]
    run_shard("_test_synth", 1, 2, tmp_path / "s1")
    merged = merge_shards([tmp_path / "s0", tmp_path / "s1"])
    assert merged.sha256() == run_sweep("_test_synth").sha256()


def test_torn_shard_journal_names_missing_point_until_rerun(tmp_path):
    for i in range(2):
        run_shard("_test_synth", i, 2, tmp_path / f"s{i}")
    path = _journal(tmp_path / "s0", 0, 2)
    text = path.read_text()
    path.write_text(text[:text.rindex('"values"')])  # crash mid-write
    dirs = [tmp_path / "s0", tmp_path / "s1"]
    with pytest.raises(ShardError, match=r"no values for point\(s\) \[8\]"):
        merge_shards(dirs)

    assert run_shard("_test_synth", 0, 2, tmp_path / "s0").fresh == [8]
    assert merge_shards(dirs).sha256() == run_sweep("_test_synth").sha256()


def test_merge_reads_a_coordinator_journal(tmp_path):
    """One header format: a fleet coordinator that crashed after
    accepting every point leaves a journal that merges as a one-shard
    set."""
    path = _journal(tmp_path, 0, 1)
    with pytest.raises(FleetError, match="crashed after 9"):
        run_chaos_fleet("_test_synth", journal_path=path, workers=1,
                        coordinator_chaos=CoordinatorChaos(crash_after_results=9),
                        max_restarts=0, timeout_s=60.0)
    header, _ = read_journal(path)
    assert header["grid"] == {"k": list(range(9))}
    assert merge_shards([tmp_path]).sha256() == run_sweep("_test_synth").sha256()


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
                      str(tmp_path / "s1"), "--out", str(tmp_path / "merged"))
    assert code == 2
    assert "error:" in text and "mismatch" in text
    assert not (tmp_path / "merged").exists()  # nothing was written


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
        assert code == 2 and "only writes a shard journal" in text
    assert not list(tmp_path.glob("*.shard-*"))  # nothing was written
