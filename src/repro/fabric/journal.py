"""The sweep journal: crash → resume, not re-run.

One JSONL file per sweep: a header line carrying the request key and
the readable request (scenario, grid, defaults, seed, both modes), then
one line per accepted point, appended and fsynced the moment the point
is accepted. The fleet coordinator (``--journal``) replays it after a
crash and removes it on success. A static shard (``repro sweep --shard
I/N``) keeps it as its output: a re-run resumes it, and ``repro sweep
--merge`` rebuilds the sweep from the header and prefills one ledger
from every shard's journal. A lingering journal is an unfinished
coordinator sweep or a shard's result.

Reading rules (:func:`read_journal`):

- a reader checks only the header's ``format`` and ``request_key``: a
  journal of another key (code, grid, seed or modes changed) is
  discarded as *stale* on resume and refused by a merge;
- a torn final line (the crash landed mid-write) is dropped — a resume
  re-runs that point, a merge names it as missing;
- duplicate indices keep the first occurrence, mirroring the
  tracker's first-result-wins acceptance.

Values round-trip through JSON ``repr`` exactly, so a resumed or merged
sweep's final bytes are identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, TextIO

from repro.wire import encode

__all__ = ["Journal", "read_journal"]

_JOURNAL_FORMAT = 1


Points = dict[int, tuple[dict[str, float], Optional[float]]]


def read_journal(path: Path) -> tuple[dict[str, Any], Points]:
    """Parse one journal into its header and its points (index ->
    ``(values, elapsed_s)``). Raises ``OSError`` or ``ValueError`` when
    the file or its header cannot be read."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0]) if lines else None
    if (not isinstance(header, dict)
            or header.get("format") != _JOURNAL_FORMAT
            or not isinstance(header.get("total"), int)):
        raise ValueError(f"{path}: not a format-{_JOURNAL_FORMAT} journal")
    points: Points = {}
    for line in lines[1:]:
        try:
            row = json.loads(line)
        except ValueError:
            continue  # torn tail from a mid-write crash
        if (not isinstance(row, dict) or "index" not in row
                or not isinstance(row.get("values"), dict)):
            continue
        index = row["index"]
        if (isinstance(index, int) and 0 <= index < header["total"]
                and index not in points):
            points[index] = (row["values"], row.get("elapsed_s"))
    return header, points


class Journal:
    """Append-only record of accepted points for one sweep."""

    def __init__(self, path: Path, request_key: str, scenario: str, total: int,
                 request: Mapping[str, Any] = ()):
        self.path = Path(path)
        self.request_key = request_key
        self.scenario = scenario
        self.total = total
        #: The readable request the header carries beside the key.
        self.request = dict(request)
        self._fh: Optional[TextIO] = None
        #: Points recovered from a prior run's journal.
        self.resumed: Points = {}
        #: True when a journal existed but belonged to a different
        #: request (stale) and was discarded.
        self.discarded_stale = False

    # -- lifecycle -----------------------------------------------------------
    def open(self) -> "Journal":
        """Load any prior journal at ``path`` (populating ``resumed``),
        then (re)open the file for appending — rewritten from the
        recovered state, so a resumed journal is always well-formed."""
        self._load_existing()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self._write_line({
            **self.request,
            "format": _JOURNAL_FORMAT,
            "request_key": self.request_key,
            "scenario": self.scenario,
            "total": self.total,
        })
        for index, (values, elapsed) in sorted(self.resumed.items()):
            self._write_line(self._point_line(index, values, elapsed))
        return self

    def _load_existing(self) -> None:
        try:
            header, points = read_journal(self.path)
        except (OSError, UnicodeDecodeError):
            return
        except ValueError:
            self.discarded_stale = True
            return
        if header.get("request_key") != self.request_key:
            self.discarded_stale = True
            return
        self.resumed = points

    def record(
        self, index: int, values: Mapping[str, float],
        elapsed_s: Optional[float],
    ) -> None:
        """Persist one accepted point. Flushed immediately: the journal
        exists precisely for the case where the next instruction never
        executes."""
        if self._fh is None:
            raise RuntimeError("journal is not open")
        self._write_line(self._point_line(index, dict(values), elapsed_s))
        os.fsync(self._fh.fileno())

    @staticmethod
    def _point_line(
        index: int, values: Mapping[str, float], elapsed_s: Optional[float]
    ) -> dict[str, Any]:
        line: dict[str, Any] = {"index": index, "values": dict(values)}
        if elapsed_s is not None:
            line["elapsed_s"] = elapsed_s
        return line

    def _write_line(self, obj: Mapping[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(encode(obj).decode("utf-8"))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def remove(self) -> None:
        """The sweep finished and its result is safely assembled; a
        journal left behind would only invite a pointless resume."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass
