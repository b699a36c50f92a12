"""The sweep ledger: the one place the cache, journal and assembly
policy is decided for every way of executing a sweep.

Pinned here: prefill precedence (whole-sweep cache, then journal, then
point cache), first-wins acceptance journaled once, and ``result()``
storing only fresh points and only real costs.
"""

import json

import pytest

from repro import runctx
from repro.experiments import get_scenario, run_sweep
from repro.experiments.cache import PointCache, TimingStore, cached_sweep
from repro.experiments.driver import SweepLedger
from repro.fabric.journal import Journal

CTX = runctx.current()


def _ledger(tmp_path, *, journal=False, cache=True):
    ledger = SweepLedger(get_scenario("_test_synth"), CTX,
                         cache_dir=tmp_path / "cache" if cache else None)
    if journal:
        ledger.journal = Journal(tmp_path / "j.jsonl", ledger.key,
                                 "_test_synth", ledger.total)
    return ledger


def _journal_with(tmp_path, ledger, rows):
    """A prior coordinator's journal holding ``rows`` (index -> y)."""
    prior = Journal(tmp_path / "j.jsonl", ledger.key, "_test_synth", ledger.total).open()
    for index, y in rows.items():
        prior.record(index, {"y": y}, 0.25)
    prior.close()


@pytest.mark.parametrize("whole_sweep_entry", [True, False])
def test_prefill_precedence(tmp_path, whole_sweep_entry):
    """Every point is in the point cache and two are also journaled
    (with different values): the whole-sweep entry wins over both, the
    journal over the point cache."""
    serial = run_sweep("_test_synth")
    cached_sweep("_test_synth", cache_dir=tmp_path / "cache")
    if not whole_sweep_entry:
        for entry in (tmp_path / "cache").glob("_test_synth-*.json"):
            entry.unlink()
    ledger = _ledger(tmp_path, journal=True)
    _journal_with(tmp_path, ledger, {0: -1.0, 4: -4.0})

    hit = ledger.prefill()
    lookups = ledger.point_cache.hits + ledger.point_cache.misses
    if whole_sweep_entry:
        # A whole-sweep hit reads nothing else and retires the journal.
        assert hit is not None and hit.sha256() == serial.sha256()
        assert lookups == 0 and ledger.timings._data is None  # noqa: SLF001
        assert not (tmp_path / "j.jsonl").exists()
        assert ledger.prefilled == 0
        return
    assert hit is None
    # Journaled points win over the point cache, which fills the rest.
    assert ledger.results[0] == {"y": -1.0} and ledger.elapsed[0] == 0.25
    assert ledger.results[4] == {"y": -4.0}
    assert lookups == ledger.total - 2
    assert ledger.prefilled == ledger.total
    assert ledger.pending() == []


def test_accept_is_first_wins_and_journals_once(tmp_path):
    ledger = _ledger(tmp_path, journal=True, cache=False)
    ledger.prefill()
    assert ledger.accept(3, {"y": 1.0}, 0.5)
    assert not ledger.accept(3, {"y": 2.0}, 0.5)  # a late duplicate
    assert ledger.results[3] == {"y": 1.0}
    assert ledger.fresh == [3]
    lines = [json.loads(line) for line in (tmp_path / "j.jsonl").read_text().splitlines()]
    assert [row.get("index") for row in lines[1:]] == [3]


def test_result_stores_only_fresh_points_and_real_costs(tmp_path, monkeypatch):
    serial = run_sweep("_test_synth")
    run_sweep("_test_synth", {"k": [0, 1, 2]}, point_cache=PointCache(tmp_path / "cache"))
    ledger = _ledger(tmp_path)
    assert ledger.prefill() is None
    assert ledger.prefilled == 3
    stored, store = [], ledger.point_cache.store
    monkeypatch.setattr(ledger.point_cache, "store",
                        lambda name, key, values: stored.append(values) or store(name, key, values))
    pending = ledger.pending()
    assert sorted(pending) == list(range(3, 9))
    for i in pending:
        values = serial.points[i]["values"]
        # Index 3 is a worker-side point-cache hit: it reports 0.0.
        ledger.accept(i, values, 0.0 if i == 3 else 0.125)
    result = ledger.result(workers=1)
    assert result.sha256() == serial.sha256()
    assert (result.executed_points, result.cached_points) == (6, 3)
    assert len(stored) == 6  # prefilled points are never stored again
    recorded = json.loads((tmp_path / "cache" / "timings.json").read_text())["elapsed_s"]
    timings = TimingStore(tmp_path / "cache")
    sc = get_scenario("_test_synth")
    keys = {i: timings.key(sc, sc.points()[i], CTX)[:16] for i in range(9)}
    assert set(recorded) == {keys[i] for i in range(4, 9)}
