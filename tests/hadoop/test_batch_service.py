"""Callback-served heartbeat service: byte-equivalence with the serial loop.

The JobTracker serves its inbox from event callbacks: a message put to
an idle JobTracker starts its service slice at once, and each slice's
completion handles the message and starts the next queued one. A
*pass* is one busy period. The contract is that this server is
*byte-identical* to the original get-per-message process loop: each
message still pays its own serialized service time and is handled in
arrival order, so the server may only shave Python overhead — never
move a decision. These tests pin that contract by running the same
workloads under the real server and under a verbatim replica of the
old serial loop (a process reading a plain ``Store`` inbox), across
both engine modes and both model modes, and by property-testing the
vectorized kernel cost models against their scalar forms bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runctx
from repro.cell.processor import CellProcessor
from repro.cell.runtime import CellMapReduceRuntime, DirectSPERuntime, OffloadRuntime
from repro.core.simexec import run_workload_mix
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.messages import Heartbeat, TaskDone, TaskFailed
from repro.perf.calibration import MB, PAPER_CALIBRATION
from repro.perf.kernels import KernelPerfModel, RatePerfModel, SamplesPerfModel
from repro.sim.engine import Environment
from repro.sim.resources import Store


def _serial_main_loop(self):
    """The pre-batching service loop: one ``get()`` per message, one
    service slice, one dispatch. A tracker's reply box is not a
    ``Store``: its ``put`` schedules the delivery and returns nothing,
    so the replica calls it where it used to yield a born-processed
    ``Store.put`` event (which scheduled nothing)."""
    service_s = self.calib.jobtracker_service_s
    while True:
        msg, reply_box = yield self.inbox.get()
        yield self.env.pooled_timeout(service_s)
        if isinstance(msg, Heartbeat):
            reply = self._handle_heartbeat(msg)
            reply_box.put(reply)
        elif isinstance(msg, TaskDone):
            self._handle_done(msg)
        elif isinstance(msg, TaskFailed):
            self._handle_failed(msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message {msg!r}")


def _serial_start(self):
    """``JobTracker.start`` with the replica installed: the inbox becomes
    a plain ``Store`` that the replica process reads, and the real
    start adds the failure monitor as usual."""
    self.inbox = Store(self.env)
    self.env.process(_serial_main_loop(self), name="jobtracker")
    _REAL_START(self)


_REAL_START = JobTracker.start
_BATCH_ONLY_KEYS = ("heartbeat_batches", "heartbeat_batch_hist")


def _run_mix(serial, engine_ref=False, model_ref=False, seed=31, num_jobs=3,
             stagger_s=3.0):
    """One traced multi-job mix; returns (mean completion, assignment
    trace, decision counters)."""
    ctx = replace(runctx.current(), engine_reference=engine_ref,
                  model_reference=model_ref)
    try:
        if serial:
            JobTracker.start = _serial_start
        with runctx.using(ctx):
            mix, sim = run_workload_mix(
                8,
                num_jobs=num_jobs,
                scheduler="fair",
                stagger_s=stagger_s,
                data_gb=0.5,
                samples=2e9,
                accelerated_fraction=0.5,
                seed=seed,
                trace=True,
                return_cluster=True,
            )
        assert mix.succeeded
        trace = [
            (r.time, r.attrs["job"], r.attrs["kind"], r.attrs["task"],
             r.attrs["tracker"])
            for r in sim.cluster.tracer.records
            if r.event == "task_assigned"
        ]
        return mix.mean_completion_s, trace, sim.jobtracker.decision_counters()
    finally:
        JobTracker.start = _REAL_START


def _without_batch_keys(counters):
    return {k: v for k, v in counters.items() if k not in _BATCH_ONLY_KEYS}


@pytest.mark.parametrize("engine_ref", [False, True])
@pytest.mark.parametrize("model_ref", [False, True])
def test_batched_pass_identical_to_serial_loop(engine_ref, model_ref):
    """Same mean completion, same assignment trace, same decision
    counters (minus the batch histogram only the batched loop keeps) in
    every engine-mode x model-mode combination."""
    b_mean, b_trace, b_counters = _run_mix(
        serial=False, engine_ref=engine_ref, model_ref=model_ref)
    s_mean, s_trace, s_counters = _run_mix(
        serial=True, engine_ref=engine_ref, model_ref=model_ref)
    assert b_mean == s_mean
    assert b_trace == s_trace
    assert _without_batch_keys(b_counters) == _without_batch_keys(s_counters)
    # The serial replica never tallies passes; the real server must.
    assert s_counters["heartbeat_batches"] == 0
    assert b_counters["heartbeat_batches"] > 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_jobs=st.integers(min_value=2, max_value=4),
    stagger_s=st.sampled_from([0.0, 2.0, 7.5]),
)
def test_batched_serial_equivalence_property(seed, num_jobs, stagger_s):
    """Equivalence holds across seeds, job counts, and arrival shapes
    (burst vs staggered), not just the hand-picked case above."""
    batched = _run_mix(serial=False, seed=seed, num_jobs=num_jobs,
                       stagger_s=stagger_s)
    serial = _run_mix(serial=True, seed=seed, num_jobs=num_jobs,
                      stagger_s=stagger_s)
    assert batched[0] == serial[0]
    assert batched[1] == serial[1]
    assert _without_batch_keys(batched[2]) == _without_batch_keys(serial[2])


def test_batch_histogram_accounts_for_every_heartbeat():
    """The surfaced histogram is complete: its passes sum to the batch
    counter and its sizes sum to the heartbeat counter — and a
    contended multi-job mix actually produces multi-message passes."""
    _, _, counters = _run_mix(serial=False)
    hist = counters["heartbeat_batch_hist"]
    assert hist, "batched loop recorded no service passes"
    assert all(isinstance(k, str) for k in hist)
    assert counters["heartbeat_batches"] == sum(hist.values())
    assert counters["heartbeats"] == sum(int(k) * v for k, v in hist.items())
    assert any(int(k) >= 2 for k in hist), "no same-instant batching occurred"


# -- vectorized kernel cost models -------------------------------------------

_POS = st.floats(min_value=1e-6, max_value=1e15, allow_nan=False,
                 allow_infinity=False)
_STARTUP = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                     allow_infinity=False)
_WORKS = st.lists(
    st.floats(min_value=0.0, max_value=1e18, allow_nan=False,
              allow_infinity=False),
    max_size=50,
)


@given(bandwidth=_POS, startup=_STARTUP, works=_WORKS)
def test_rate_model_batch_is_bitwise_scalar(bandwidth, startup, works):
    model = RatePerfModel(bandwidth_bps=bandwidth, startup_s=startup)
    batch = model.time_for_batch(works)
    assert batch.dtype == np.float64 and len(batch) == len(works)
    for work, t in zip(works, batch):
        assert float(t) == model.time_for(work)


@given(rate=_POS, startup=_STARTUP, works=_WORKS)
def test_samples_model_batch_is_bitwise_scalar(rate, startup, works):
    model = SamplesPerfModel(rate_per_s=rate, startup_s=startup)
    batch = model.time_for_batch(works)
    assert batch.dtype == np.float64 and len(batch) == len(works)
    for work, t in zip(works, batch):
        assert float(t) == model.time_for(work)


def test_batch_zero_work_is_exactly_zero():
    model = RatePerfModel(bandwidth_bps=123.0, startup_s=7.0)
    assert model.time_for_batch([0.0, 1.0])[0] == 0.0
    model = SamplesPerfModel(rate_per_s=123.0, startup_s=7.0)
    assert model.time_for_batch([0.0, 1.0])[0] == 0.0


def test_batch_rejects_negative_work():
    with pytest.raises(ValueError):
        RatePerfModel(bandwidth_bps=1e6).time_for_batch([1.0, -2.0])
    with pytest.raises(ValueError):
        SamplesPerfModel(rate_per_s=1e6).time_for_batch([-1.0])


def test_base_class_batch_falls_back_to_scalar_loop():
    class Quadratic(KernelPerfModel):
        def time_for(self, work):
            return 0.5 + work * work

    model = Quadratic()
    works = [0.0, 1.5, 3.25]
    assert list(model.time_for_batch(works)) == [model.time_for(w) for w in works]


# -- analytic offload closed forms -------------------------------------------


def _direct_runtime():
    env = Environment()
    cell = CellProcessor(env, 0, PAPER_CALIBRATION)
    return DirectSPERuntime(cell, PAPER_CALIBRATION,
                            startup_s=PAPER_CALIBRATION.pi_spu_init_s)


@settings(max_examples=25, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e13, allow_nan=False,
                  allow_infinity=False),
        min_size=1, max_size=16,
    ),
    rate=st.floats(min_value=1e3, max_value=1e12, allow_nan=False,
                   allow_infinity=False),
)
def test_samples_time_batch_is_bitwise_scalar(samples, rate):
    runtime = _direct_runtime()
    batch = runtime.analytic_samples_time_batch(samples, rate)
    for s, t in zip(samples, batch):
        assert float(t) == runtime.analytic_samples_time(s, rate)


def test_analytic_time_memo_is_transparent():
    """The memo must be invisible: cached == uncached, shared across
    same-shape runtimes, and never collides across runtime classes."""
    nbytes, spe_bw = 8 * MB, PAPER_CALIBRATION.aes_spe_bw
    OffloadRuntime._ANALYTIC_MEMO.clear()
    direct = _direct_runtime()
    first = direct.analytic_time(nbytes, spe_bw)
    assert OffloadRuntime._ANALYTIC_MEMO, "memo not populated"
    assert direct.analytic_time(nbytes, spe_bw) == first
    assert first == direct._analytic_time_uncached(nbytes, spe_bw)
    # Same-parameter runtimes share the entry (one entry, same answer).
    entries = len(OffloadRuntime._ANALYTIC_MEMO)
    assert _direct_runtime().analytic_time(nbytes, spe_bw) == first
    assert len(OffloadRuntime._ANALYTIC_MEMO) == entries
    # A different runtime class keys separately and stays exact.
    env = Environment()
    mr = CellMapReduceRuntime(
        CellProcessor(env, 0, PAPER_CALIBRATION), PAPER_CALIBRATION)
    assert mr.analytic_time(nbytes, spe_bw) == mr._analytic_time_uncached(
        nbytes, spe_bw)
    assert mr.analytic_time(nbytes, spe_bw) != first
