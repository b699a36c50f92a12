"""The completion journal: resume, stale discard, torn-tail tolerance."""

from repro.fabric import Journal

KEY = "a" * 64
OTHER_KEY = "b" * 64


def _resumed(path, total):
    """The points a fresh incarnation recovers (its journal closed)."""
    journal = Journal(path, KEY, "synth", total=total).open()
    journal.close()
    return journal.resumed


def test_resume_recovers_recorded_points(tmp_path):
    path = tmp_path / "j.jsonl"
    first = Journal(path, KEY, "synth", total=4).open()
    first.record(0, {"y": 0.5}, 0.1)
    first.record(2, {"y": 2.5}, None)
    first.close()  # the crash: no remove()

    second = Journal(path, KEY, "synth", total=4).open()
    assert second.resumed == {0: ({"y": 0.5}, 0.1), 2: ({"y": 2.5}, None)}
    assert not second.discarded_stale

    # The rewritten journal is immediately durable again: a third
    # incarnation sees both recovered points plus new ones.
    second.record(1, {"y": 1.5}, 0.2)
    second.close()
    third = Journal(path, KEY, "synth", total=4).open()
    third.close()
    assert sorted(third.resumed) == [0, 1, 2]


def test_float_values_round_trip_exactly(tmp_path):
    path = tmp_path / "j.jsonl"
    values = {"y": 0.1 + 0.2, "z": 1e-17, "w": 12345678901234.567}
    j = Journal(path, KEY, "synth", total=1).open()
    j.record(0, values, 0.1)
    j.close()
    resumed = _resumed(path, total=1)
    assert resumed[0][0] == values  # bit-exact, not approximately


def test_stale_journal_is_discarded_not_merged(tmp_path):
    path = tmp_path / "j.jsonl"
    old = Journal(path, OTHER_KEY, "synth", total=4).open()
    old.record(0, {"y": 99.0}, 0.1)
    old.close()

    fresh = Journal(path, KEY, "synth", total=4).open()
    fresh.close()
    assert fresh.resumed == {}
    assert fresh.discarded_stale


def test_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "j.jsonl"
    j = Journal(path, KEY, "synth", total=4).open()
    j.record(0, {"y": 0.5}, 0.1)
    j.record(1, {"y": 1.5}, 0.1)
    j.close()
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"index": 2, "values": {"y"')  # crash mid-write

    resumed = _resumed(path, total=4)
    assert sorted(resumed) == [0, 1]


def test_duplicate_and_out_of_range_lines_are_ignored(tmp_path):
    path = tmp_path / "j.jsonl"
    j = Journal(path, KEY, "synth", total=2).open()
    j.record(0, {"y": 1.0}, 0.1)
    j.close()
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"index": 0, "values": {"y": 999.0}}\n')  # duplicate
        fh.write('{"index": 7, "values": {"y": 1.0}}\n')  # out of range
        fh.write('{"values": {"y": 1.0}}\n')  # missing index

    resumed = _resumed(path, total=2)
    assert resumed == {0: ({"y": 1.0}, 0.1)}  # first occurrence wins


def test_remove_deletes_the_file(tmp_path):
    path = tmp_path / "j.jsonl"
    j = Journal(path, KEY, "synth", total=1).open()
    j.record(0, {"y": 1.0}, 0.1)
    j.remove()
    assert not path.exists()
    j.remove()  # idempotent


def test_missing_file_resumes_empty(tmp_path):
    j = Journal(tmp_path / "absent.jsonl", KEY, "synth", total=3).open()
    assert j.resumed == {}
    assert not j.discarded_stale
    j.close()
