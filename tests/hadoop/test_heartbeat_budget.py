"""Deterministic cost budget of the heartbeat protocol (no timing).

Host time is noisy; the counts behind it are not. For the Fig. 8 Pi
points the fleet sweep runs, these tests pin the number of heartbeat
exchanges (the protocol itself: unchanged by any cost work) and cap the
number of engine events (the cost: may only fall). They also pin that a
Java-backend cluster builds no Cell hardware it never uses.
"""

from dataclasses import replace

import pytest

from repro import runctx
from repro.cell.processor import SPE
from repro.core.simexec import run_pi_job
from repro.perf.calibration import Backend

SAMPLES = 1e11  # the fig8 scenario's default

#: (nodes, curve) -> (heartbeats, max processed events) at seed 1.
BUDGET = {
    (8, "Java Mapper"): (862, 3738),
    (8, "Cell BE Mapper"): (46, 371),
    (8, "Cell BE Mapper (10x)"): (190, 973),
    (72, "Java Mapper"): (1030, 5808),
    (72, "Cell BE Mapper"): (238, 2705),
    (72, "Cell BE Mapper (10x)"): (382, 3295),
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
    heartbeats, max_events = BUDGET[(nodes, curve)]
    assert sim.jobtracker.decision_counters()["heartbeats"] == heartbeats
    assert sim.env.processed_events <= max_events


@pytest.fixture
def spe_builds(monkeypatch):
    built = []
    init = SPE.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SPE, "__init__", counting_init)
    return built


def test_java_pi_job_builds_no_spe(spe_builds):
    result, sim = run_pi_job(8, SAMPLES, Backend.JAVA_PPE, seed=1,
                             return_cluster=True)
    assert result.succeeded
    assert all(node.cells for node in sim.cluster.workers)
    assert spe_builds == []
    assert all(cell.total_spe_busy_s() == 0.0
               for node in sim.cluster.workers for cell in node.cells)


def test_cell_pi_job_builds_its_spes_on_first_use(spe_builds):
    result = run_pi_job(2, SAMPLES, Backend.CELL_SPE_DIRECT, seed=1)
    assert result.succeeded
    assert len(spe_builds) == 2 * 2 * 8  # nodes x sockets x SPEs
