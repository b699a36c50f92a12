"""Deterministic cost budget of the heartbeat protocol (no timing).

Host time is noisy; the counts behind it are not. For the Fig. 8 Pi
points the fleet sweep runs, these tests pin the number of heartbeat
exchanges and parks (the protocol itself: unchanged by any cost work)
and cap the number of engine events (the cost: may only fall). They
also pin that a cluster builds no Cell hardware it never reads: none
for Java mappers, none for the event-thin Pi offload (one analytic
event), and every SPE and DMA engine for the event-accurate reference
Pi offload.
"""

from dataclasses import replace

import pytest

from repro import runctx
from repro.cell.dma import DMAEngine
from repro.cell.processor import SPE
from repro.core.simexec import run_pi_job
from repro.perf.calibration import Backend

SAMPLES = 1e11  # the fig8 scenario's default

#: (nodes, curve) -> (heartbeats, heartbeat parks, max processed
#: events) at seed 1.
BUDGET = {
    (8, "Java Mapper"): (862, 840, 2906),
    (8, "Cell BE Mapper"): (46, 24, 356),
    (8, "Cell BE Mapper (10x)"): (190, 173, 811),
    (72, "Java Mapper"): (1030, 915, 4952),
    (72, "Cell BE Mapper"): (238, 123, 2655),
    (72, "Cell BE Mapper (10x)"): (382, 265, 3089),
}

CURVES = {
    "Java Mapper": (Backend.JAVA_PPE, SAMPLES),
    "Cell BE Mapper": (Backend.CELL_SPE_DIRECT, SAMPLES),
    "Cell BE Mapper (10x)": (Backend.CELL_SPE_DIRECT, 10 * SAMPLES),
}


@pytest.fixture(params=[False, True], ids=["opt-engine", "ref-engine"])
def event_thin_model(request):
    """The event-thin model protocol, under both engine loops (their
    event traces are identical, so one budget serves both)."""
    ctx = replace(runctx.current(), engine_reference=request.param,
                  model_reference=False)
    with runctx.using(ctx):
        yield


@pytest.mark.parametrize("nodes,curve", sorted(BUDGET))
def test_fig8_point_heartbeats_and_event_budget(event_thin_model, nodes, curve):
    backend, samples = CURVES[curve]
    result, sim = run_pi_job(nodes, samples, backend, seed=1, return_cluster=True)
    assert result.succeeded
    heartbeats, parks, max_events = BUDGET[(nodes, curve)]
    counters = sim.jobtracker.decision_counters()
    assert counters["heartbeats"] == heartbeats
    assert counters["heartbeat_parks"] == parks
    assert sim.env.processed_events <= max_events


def _counting(monkeypatch, cls):
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@pytest.fixture
def spe_builds(monkeypatch):
    return _counting(monkeypatch, SPE)


@pytest.fixture
def dma_builds(monkeypatch):
    return _counting(monkeypatch, DMAEngine)


def _run_cell_pi(model_reference):
    ctx = replace(runctx.current(), model_reference=model_reference)
    with runctx.using(ctx):
        return run_pi_job(2, SAMPLES, Backend.CELL_SPE_DIRECT, seed=1,
                          return_cluster=True)


def test_java_pi_job_builds_no_spe(spe_builds):
    result, sim = run_pi_job(8, SAMPLES, Backend.JAVA_PPE, seed=1,
                             return_cluster=True)
    assert result.succeeded
    assert all(node.cells for node in sim.cluster.workers)
    assert spe_builds == []
    assert all(cell.total_spe_busy_s() == 0.0
               for node in sim.cluster.workers for cell in node.cells)


def test_event_thin_cell_pi_job_builds_no_cell_hardware(spe_builds, dma_builds):
    """The analytic Pi offload reads no SPE and no DMA engine, yet the
    sockets still account the SPE busy time it spreads over them."""
    result, sim = _run_cell_pi(model_reference=False)
    assert result.succeeded
    assert spe_builds == []
    assert dma_builds == []
    cells = [cell for node in sim.cluster.workers for cell in node.cells]
    assert not any(cell.spes_built for cell in cells)
    assert all(cell.total_spe_busy_s() > 0.0 for cell in cells)


def test_reference_cell_pi_job_builds_every_spe(spe_builds, dma_builds):
    """The event-accurate offload runs one process per SPE over the
    socket's DMA engine, so it builds all of them."""
    result, _sim = _run_cell_pi(model_reference=True)
    assert result.succeeded
    assert len(spe_builds) == 2 * 2 * 8  # nodes x sockets x SPEs
    assert len(dma_builds) == 2 * 2  # nodes x sockets
