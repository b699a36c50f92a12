"""Tracer promotion: spans, ring-buffer caps, drop accounting."""

from repro.sim.engine import Environment
from repro.sim.trace import NULL_SPAN, Tracer


def test_emit_ring_cap_drops_oldest_and_counts():
    env = Environment()
    tr = Tracer(env, max_records=5)
    for i in range(12):
        tr.emit("cat", "ev", i=i)
    assert len(tr.records) == 5
    assert [r.attrs["i"] for r in tr.records] == list(range(7, 12))
    assert tr.dropped == 7
    # counters keep the true total even once the ring evicts
    assert tr.count("cat", "ev") == 12


def test_keep_predicate_still_filters_with_cap():
    env = Environment()
    tr = Tracer(env, keep=lambda r: r.attrs["i"] % 2 == 0, max_records=2)
    for i in range(8):
        tr.emit("cat", "ev", i=i)
    assert [r.attrs["i"] for r in tr.records] == [4, 6]
    # filtered-out records are not "dropped": they were never retained
    assert tr.dropped == 2


def test_span_seals_with_duration_and_attrs():
    env = Environment()
    tr = Tracer(env)

    def proc():
        span = tr.span("task", "map 0", track="node0/slot0", job=1)
        yield env.timeout(2.5)
        span.end(records=4)

    env.process(proc())
    env.run()
    (span,) = tr.spans
    assert (span.start, span.end) == (0.0, 2.5)
    assert span.duration == 2.5
    assert span.category == "task" and span.track == "node0/slot0"
    assert span.attrs == {"job": 1, "records": 4}


def test_span_end_is_idempotent_and_track_defaults_to_category():
    env = Environment()
    tr = Tracer(env)
    span = tr.span("phase", "shuffle")
    span.end()
    span.end()
    assert len(tr.spans) == 1
    assert tr.spans[0].track == "phase"


def test_span_context_manager_closes():
    env = Environment()
    tr = Tracer(env)
    with tr.span("phase", "merge"):
        pass
    assert len(tr.spans) == 1


def test_disabled_tracer_returns_shared_null_span():
    env = Environment()
    tr = Tracer(env, enabled=False)
    span = tr.span("task", "map 0")
    assert span is NULL_SPAN
    span.end(anything="goes")
    with tr.span("task", "map 1"):
        pass
    assert len(tr.spans) == 0


def test_span_ring_cap_counts_drops():
    env = Environment()
    tr = Tracer(env, max_records=3)
    for i in range(5):
        tr.span("task", f"t{i}").end()
    assert len(tr.spans) == 3
    assert tr.dropped == 2
    assert [s.name for s in tr.spans] == ["t2", "t3", "t4"]


def test_clear_resets_everything():
    env = Environment()
    tr = Tracer(env, max_records=1)
    tr.emit("c", "e")
    tr.emit("c", "e")
    tr.span("c", "s").end()
    tr.clear()
    assert len(tr.records) == 0 and len(tr.spans) == 0
    assert tr.dropped == 0 and tr.count("c") == 0
