"""Chrome-trace / Perfetto JSON export: collector plumbing and schema."""

import json
from dataclasses import replace

from repro import runctx
from repro.core import run_pi_job
from repro.obs.traceexport import TraceCollector, chrome_trace, write_chrome_trace
from repro.perf import Backend


def _traced_pi_run(**collector_kwargs):
    collector = TraceCollector(**collector_kwargs)
    with runctx.using(replace(runctx.current(), traces=collector)):
        result = run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    assert result.succeeded
    return collector


def test_collector_tracer_is_ring_capped_and_counted():
    collector = _traced_pi_run(max_records=10)
    (tracer,) = collector.tracers
    assert tracer.enabled
    assert len(tracer.records) <= 10 and len(tracer.spans) <= 10
    assert collector.dropped > 0  # a real job overflows a 10-slot ring
    assert collector.span_count() == len(tracer.spans)


def test_chrome_trace_schema_is_perfetto_loadable(tmp_path):
    collector = _traced_pi_run()
    out = tmp_path / "trace.json"
    returned = write_chrome_trace(out, collector=collector)

    trace = json.loads(out.read_text())  # round-trips as strict JSON
    assert trace == returned
    events = trace["traceEvents"]
    assert events
    assert trace["displayTimeUnit"] == "ms"
    assert trace["otherData"]["dropped_records"] == collector.dropped

    for ev in events:
        assert {"ph", "pid", "tid", "ts", "name"} <= set(ev)
        assert ev["ph"] in ("M", "X", "i")
    completes = [e for e in events if e["ph"] == "X"]
    assert completes and all(e["dur"] >= 0 for e in completes)
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "t" for e in instants)

    # process/thread metadata exists for every (pid, tid) used by events
    named_threads = {(e["pid"], e["tid"]) for e in events
                     if e["ph"] == "M" and e["name"] == "thread_name"}
    used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
    assert used <= named_threads
    assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)


def test_span_taxonomy_covers_tasks_and_kernel_phases():
    collector = _traced_pi_run()
    cats = {s.category for t in collector.tracers for s in t.spans}
    assert {"job", "task", "kernel"} <= cats
    tracks = {s.track for t in collector.tracers for s in t.spans}
    assert any(track.endswith("/kernel") for track in tracks)


def test_chrome_trace_of_nothing_is_valid():
    trace = chrome_trace([])
    assert trace["traceEvents"] == []
    json.dumps(trace)
