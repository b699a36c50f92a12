"""Cluster assembly.

Builds the paper's testbed shape: N worker blades (QS22 by default, each
with two Cell sockets) plus one JS22 master blade hosting the JobTracker
and NameNode, all behind one GigE switch. The §V heterogeneity ablation
uses ``accelerated_fraction`` to mix accelerator-less workers in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import runctx
from repro.perf.calibration import CalibrationProfile, PAPER_CALIBRATION
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.cell.processor import CellProcessor

from repro.cluster.network import Network
from repro.cluster.node import JS22_SPEC, QS22_SPEC, Node, NodeSpec

__all__ = ["Cluster", "ClusterSpec", "build_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a cluster to build.

    Attributes
    ----------
    worker_nodes:
        Number of worker blades (paper: 4–64, up to 66 available).
    worker_spec / master_spec:
        Blade models; defaults match the paper's testbed.
    accelerated_fraction:
        Fraction of workers carrying Cell sockets (1.0 = paper setup;
        swept by the heterogeneity ablation).
    seed:
        Root seed for all stochastic elements (heartbeat jitter, block
        placement tie-breaking).
    trace:
        Retain trace records (disable for large sweeps).
    """

    worker_nodes: int
    worker_spec: NodeSpec = QS22_SPEC
    master_spec: NodeSpec = JS22_SPEC
    accelerated_fraction: float = 1.0
    gpu_fraction: float = 0.0
    """Fraction of workers carrying extension GPUs (2 per blade, one per
    mapper slot) — the §I GPU-extensibility scenario."""
    seed: int = 1234
    trace: bool = False

    def __post_init__(self) -> None:
        if self.worker_nodes < 1:
            raise ValueError("need at least one worker node")
        if not 0.0 <= self.accelerated_fraction <= 1.0:
            raise ValueError("accelerated_fraction must be in [0, 1]")
        if not 0.0 <= self.gpu_fraction <= 1.0:
            raise ValueError("gpu_fraction must be in [0, 1]")


class Cluster:
    """A wired-up simulated cluster."""

    def __init__(self, env: Environment, spec: ClusterSpec, calib: CalibrationProfile):
        self.env = env
        self.spec = spec
        self.calib = calib
        self.network = Network(env, calib)
        self.rng = RandomStreams(spec.seed)
        # A trace collector in the run context overrides the spec's
        # tracer: `repro trace` gets spans out of any scenario without
        # plumbing a flag through every construction path. Recording is
        # passive, so canonical bytes are unchanged either way.
        collector = runctx.current().traces
        if collector is not None:
            self.tracer = collector.tracer(env)
        else:
            self.tracer = Tracer(env, enabled=spec.trace)

        self.master = Node(env, 0, spec.master_spec, calib)
        self.network.attach(self.master)

        self.workers: list[Node] = []
        n_accel = round(spec.worker_nodes * spec.accelerated_fraction)
        n_gpu = round(spec.worker_nodes * spec.gpu_fraction)
        for i in range(spec.worker_nodes):
            node = Node(env, i + 1, spec.worker_spec, calib)
            if spec.worker_spec.has_accelerator and i < n_accel:
                for s in range(spec.worker_spec.cell_sockets):
                    node.cells.append(CellProcessor(env, s, calib))
            if i < n_gpu:
                from repro.gpu.device import GPUDevice

                for g in range(calib.mappers_per_node):
                    node.gpus.append(GPUDevice(env, g))
            self.network.attach(node)
            self.workers.append(node)

    def add_worker(self, accelerated: bool = True) -> Node:
        """Attach a new worker blade at the current simulation time.

        Supports the paper's §V "dynamically variable number of nodes"
        scenario: the blade gets the standard worker spec, optional Cell
        sockets, and a NIC; higher layers (DataNode, TaskTracker) are
        wired by the caller.
        """
        node_id = len(self.workers) + 1
        node = Node(self.env, node_id, self.spec.worker_spec, self.calib)
        if accelerated and self.spec.worker_spec.has_accelerator:
            for s in range(self.spec.worker_spec.cell_sockets):
                node.cells.append(CellProcessor(self.env, s, self.calib))
        self.network.attach(node)
        self.workers.append(node)
        return node

    @property
    def nodes(self) -> list[Node]:
        """Master followed by all workers."""
        return [self.master, *self.workers]

    def node_by_id(self, node_id: int) -> Node:
        if node_id == 0:
            return self.master
        return self.workers[node_id - 1]

    @property
    def accelerated_workers(self) -> list[Node]:
        return [w for w in self.workers if w.has_accelerator]

    def total_mapper_slots(self) -> int:
        """Cluster-wide map slots (2 per worker blade, §IV-A)."""
        return len(self.workers) * self.calib.mappers_per_node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster workers={len(self.workers)} "
            f"accelerated={len(self.accelerated_workers)}>"
        )


def build_cluster(
    worker_nodes: int,
    calib: CalibrationProfile = PAPER_CALIBRATION,
    env: Optional[Environment] = None,
    **spec_kwargs,
) -> Cluster:
    """Convenience constructor: a paper-shaped cluster of ``worker_nodes``."""
    env = env or Environment()
    spec = ClusterSpec(worker_nodes=worker_nodes, **spec_kwargs)
    return Cluster(env, spec, calib)
