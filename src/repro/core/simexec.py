"""Full-stack simulated job execution.

Wires the complete prototype: cluster hardware → HDFS (NameNode on the
master, a DataNode per worker) → Hadoop runtime (JobTracker on the
master, a TaskTracker per worker) → per-node kernel backends. These are
the engines behind every distributed figure (4, 5, 7, 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import runctx
from repro.obs.sampler import attach_sampler, publish_cluster_metrics
from repro.perf.calibration import Backend, CalibrationProfile, GB, PAPER_CALIBRATION
from repro.perf.energy import EnergyModel
from repro.cluster.topology import Cluster, ClusterSpec
from repro.hadoop.config import JobConf
from repro.hadoop.faults import ChurnPlan, apply_churn
from repro.hadoop.job import Job, JobResult
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasktracker import TaskTracker
from repro.hdfs.client import HDFSClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.replication import ReplicationManager
from repro.sim.engine import Environment

__all__ = [
    "SimulatedCluster",
    "WorkloadMixResult",
    "run_empty_job",
    "run_encryption_job",
    "run_pi_job",
    "run_sort_job",
    "run_workload_mix",
]


class SimulatedCluster:
    """A ready-to-use cluster: hardware + HDFS + Hadoop daemons.

    Parameters
    ----------
    worker_nodes: number of QS22 worker blades.
    calib: calibration profile.
    seed: root seed for all stochastic elements.
    trace: retain trace records (costly at scale).
    accelerated_fraction: fraction of workers with Cell sockets (§V
        heterogeneity ablation).
    scheduler: task-placement policy (a :mod:`repro.sched` registry
        name, instance, or None for the stock FIFO). When left None, the
        first job conf that names a policy selects it (see
        :meth:`run_job` / :meth:`run_jobs`).
    """

    def __init__(
        self,
        worker_nodes: int,
        calib: CalibrationProfile = PAPER_CALIBRATION,
        seed: int = 1234,
        trace: bool = False,
        accelerated_fraction: float = 1.0,
        gpu_fraction: float = 0.0,
        slow_nodes: Optional[dict[int, float]] = None,
        replication_manager: bool = False,
        scheduler=None,
    ):
        self.env = Environment()
        self.calib = calib
        spec = ClusterSpec(
            worker_nodes=worker_nodes,
            seed=seed,
            trace=trace,
            accelerated_fraction=accelerated_fraction,
            gpu_fraction=gpu_fraction,
        )
        self.cluster = Cluster(self.env, spec, calib)
        # HDFS: NameNode on the master blade, one DataNode per worker.
        self.namenode = NameNode(
            self.env,
            block_size=calib.hdfs_block_bytes,
            replication=calib.hdfs_replication,
            rng=self.cluster.rng,
        )
        for worker in self.cluster.workers:
            self.namenode.register_datanode(DataNode(worker, self.cluster.network))
        self.client = HDFSClient(self.namenode)
        # Hadoop: JobTracker on the master, TaskTracker per worker.
        self.jobtracker = JobTracker(self.cluster, self.client, scheduler=scheduler)
        self._scheduler_explicit = scheduler is not None
        self.trackers = [TaskTracker(self.jobtracker, w) for w in self.cluster.workers]
        # Straggler injection: {node_id: slowdown_factor}.
        for node_id, factor in (slow_nodes or {}).items():
            if factor <= 0:
                raise ValueError("slowdown factor must be positive")
            self.cluster.node_by_id(node_id).speed_factor = factor
        self.replication_manager = (
            ReplicationManager(self.namenode) if replication_manager else None
        )
        # Telemetry: sampled once at construction, like the modes. None
        # means every obs branch below is one `is None` check — the
        # canonical disabled path.
        self._obs = runctx.current().metrics
        self._obs_flushed: dict[str, float] = {}
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.jobtracker.start()
        for tt in self.trackers:
            tt.start()
        if self.replication_manager is not None:
            self.replication_manager.start()
        if self._obs is not None:
            attach_sampler(self, self._obs)

    def publish_metrics(self) -> None:
        """Delta-flush model tallies into the obs registry (no-op when
        telemetry is disabled); called after every ``env.run`` leg."""
        if self._obs is not None:
            publish_cluster_metrics(self, self._obs, self._obs_flushed)

    # -- dynamic membership (§V: dynamically variable environments) -----------
    def add_worker_now(self, accelerated: bool = True) -> TaskTracker:
        """Join a fresh worker blade to the running cluster: hardware,
        DataNode, TaskTracker — it starts heartbeating immediately and
        the JobTracker will feed it on its first report."""
        node = self.cluster.add_worker(accelerated=accelerated)
        self.namenode.register_datanode(DataNode(node, self.cluster.network))
        tracker = TaskTracker(self.jobtracker, node)
        self.trackers.append(tracker)
        if self._started:
            tracker.start()
        return tracker

    def add_worker_at(self, at_time: float, accelerated: bool = True) -> None:
        """Schedule a worker join at a future simulation time."""

        def _join():
            delay = at_time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.add_worker_now(accelerated=accelerated)

        self.env.process(_join(), name=f"join@{at_time}")

    def decommission(self, node_id: int, kill_datanode: bool = True) -> None:
        """Remove a worker: heartbeats stop, running attempts die, and
        (optionally) its replicas disappear — the JobTracker's timeout
        machinery takes it from there."""
        tracker = next(t for t in self.trackers if t.tracker_id == node_id)
        tracker.kill()
        if kill_datanode:
            self.namenode.handle_datanode_failure(node_id)

    # -- data --------------------------------------------------------------------
    def ingest(
        self, path: str, size: int, payload: Optional[bytes] = None, placement: str = "contiguous"
    ) -> None:
        """Pre-load a dataset (no simulated time; see HDFSClient.ingest_file)."""
        self.client.ingest_file(path, size, payload=payload, placement=placement)

    # -- jobs --------------------------------------------------------------------
    def _adopt_requested_scheduler(self, confs: list[JobConf]) -> None:
        """Honor ``JobConf.scheduler`` requests when the cluster was not
        configured with an explicit policy. All requesting confs in one
        workload must agree — a mixed-policy batch is a usage error."""
        requested = {c.scheduler for c in confs if c.scheduler is not None}
        if not requested:
            return
        if len(requested) > 1:
            raise ValueError(
                f"jobs request conflicting schedulers: {sorted(requested)}"
            )
        (name,) = requested
        if self._scheduler_explicit:
            if name != self.jobtracker.scheduler.name:
                raise ValueError(
                    f"job requests scheduler {name!r} but the cluster runs "
                    f"{self.jobtracker.scheduler.name!r}"
                )
            return
        if self.jobtracker.scheduler.name != name:
            self.jobtracker.set_scheduler(name)
        self._scheduler_explicit = True

    def run_job(self, conf: JobConf) -> JobResult:
        """Submit ``conf`` and run the simulation to job completion."""
        self._adopt_requested_scheduler([conf])
        self.start()
        job = self.jobtracker.submit_job(conf)
        result = self.env.run(job.completion)
        self.publish_metrics()
        return result

    def run_jobs(
        self,
        confs: list[JobConf],
        arrivals: Optional[list[float]] = None,
    ) -> list[JobResult]:
        """Run a multi-job workload to completion of every job.

        ``arrivals`` staggers submissions: job *i* is submitted at
        simulation time ``arrivals[i]`` (seconds from now; default all
        zero — a burst). Results come back in submission (``confs``)
        order. This is the surface the ``fair``/``locality``/``accel``
        policies exist for: with the stock FIFO a burst degenerates to
        serial job execution, while fair sharing interleaves the jobs'
        tasks across the cluster.
        """
        if not confs:
            return []
        arrivals = list(arrivals) if arrivals is not None else [0.0] * len(confs)
        if len(arrivals) != len(confs):
            raise ValueError(
                f"{len(arrivals)} arrivals for {len(confs)} jobs"
            )
        if any(a < 0 for a in arrivals):
            raise ValueError("arrival times must be >= 0")
        self._adopt_requested_scheduler(confs)
        self.start()
        results: list[Optional[JobResult]] = [None] * len(confs)

        def _driver():
            jobs: list[tuple[int, Job]] = []
            base = self.env.now
            for i in sorted(range(len(confs)), key=lambda i: (arrivals[i], i)):
                delay = base + arrivals[i] - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                jobs.append((i, self.jobtracker.submit_job(confs[i])))
            for i, job in jobs:
                results[i] = yield job.completion

        done = self.env.process(_driver(), name="multijob-driver")
        self.env.run(done)
        self.publish_metrics()
        return list(results)  # type: ignore[arg-type]

    # -- reporting -----------------------------------------------------------------
    def job_energy_j(self, result: JobResult, backend: Backend) -> float:
        """Cluster energy for a finished job (paper §V energy question)."""
        model = EnergyModel(self.calib)
        makespan = result.makespan_s
        total = 0.0
        for worker in self.cluster.workers:
            total += model.node_energy(backend, worker.kernel_busy_s, makespan).total_j
        return total


def _default_maps(nodes: int, calib: CalibrationProfile) -> int:
    """The paper's setting: one split per mapper slot (2 per blade)."""
    return nodes * calib.mappers_per_node


def run_encryption_job(
    nodes: int,
    data_bytes: float,
    backend: Backend,
    calib: CalibrationProfile = PAPER_CALIBRATION,
    num_map_tasks: Optional[int] = None,
    seed: int = 1234,
    trace: bool = False,
    accelerated_fraction: float = 1.0,
    gpu_fraction: float = 0.0,
    slow_nodes: Optional[dict[int, float]] = None,
    speculative: bool = False,
    fallback_backend: Optional[Backend] = None,
    scheduler=None,
    return_cluster: bool = False,
):
    """One distributed AES job (Figs. 4 and 5).

    ``data_bytes`` of input are pre-loaded into HDFS, split across
    ``num_map_tasks`` mappers (default: every slot), and encrypted with
    the chosen kernel backend. The extension knobs (heterogeneous node
    mixes, stragglers, speculative re-execution, backend fallback) feed
    the §V scenarios in the experiment registry.
    """
    sim = SimulatedCluster(
        nodes,
        calib,
        seed=seed,
        trace=trace,
        accelerated_fraction=accelerated_fraction,
        gpu_fraction=gpu_fraction,
        slow_nodes=slow_nodes,
        scheduler=scheduler,
    )
    sim.ingest("/data/plaintext", int(data_bytes))
    conf = JobConf(
        name=f"encrypt-{backend.value}",
        workload="aes" if backend is not Backend.EMPTY else "empty",
        backend=backend,
        input_path="/data/plaintext",
        num_map_tasks=num_map_tasks or _default_maps(nodes, calib),
        record_bytes=calib.record_bytes,
        num_reduce_tasks=0,
        speculative=speculative,
        fallback_backend=fallback_backend,
    )
    result = sim.run_job(conf)
    return (result, sim) if return_cluster else result


def run_empty_job(
    nodes: int,
    data_bytes: float,
    calib: CalibrationProfile = PAPER_CALIBRATION,
    **kwargs,
):
    """The paper's EmptyMapper probe: read everything, compute nothing."""
    return run_encryption_job(nodes, data_bytes, Backend.EMPTY, calib, **kwargs)


def run_pi_job(
    nodes: int,
    samples: float,
    backend: Backend,
    calib: CalibrationProfile = PAPER_CALIBRATION,
    num_map_tasks: Optional[int] = None,
    seed: int = 1234,
    trace: bool = False,
    accelerated_fraction: float = 1.0,
    gpu_fraction: float = 0.0,
    slow_nodes: Optional[dict[int, float]] = None,
    speculative: bool = False,
    fallback_backend: Optional[Backend] = None,
    scheduler=None,
    return_cluster: bool = False,
):
    """One distributed Pi job (Figs. 7 and 8)."""
    sim = SimulatedCluster(
        nodes,
        calib,
        seed=seed,
        trace=trace,
        accelerated_fraction=accelerated_fraction,
        gpu_fraction=gpu_fraction,
        slow_nodes=slow_nodes,
        scheduler=scheduler,
    )
    conf = JobConf(
        name=f"pi-{backend.value}",
        workload="pi",
        backend=backend,
        samples=samples,
        num_map_tasks=num_map_tasks or _default_maps(nodes, calib),
        num_reduce_tasks=1,
        speculative=speculative,
        fallback_backend=fallback_backend,
    )
    result = sim.run_job(conf)
    return (result, sim) if return_cluster else result


@dataclass
class WorkloadMixResult:
    """Summary of one multi-job workload run.

    ``results`` are per-job, in submission order. The two headline
    metrics the scheduler-comparison scenarios plot:

    - :attr:`makespan_s` — first submission to last finish (cluster
      occupancy; what an operator pays for).
    - :attr:`mean_completion_s` — average per-job submit-to-finish time
      (what each user waits; the number fair sharing improves).

    ``decision_counters`` carries the run's scheduling-decision tallies
    (JobTracker mechanism counts — assignments, speculations, kills,
    heartbeats — merged with policy-internal counts such as
    delay-scheduling waits); ``scheduler`` names the policy that made
    them.
    """

    results: list[JobResult]
    scheduler: str = ""
    decision_counters: dict[str, int] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return all(r.succeeded for r in self.results)

    @property
    def makespan_s(self) -> float:
        return max(r.finish_time for r in self.results) - min(
            r.submit_time for r in self.results
        )

    @property
    def mean_completion_s(self) -> float:
        return sum(r.makespan_s for r in self.results) / len(self.results)

    @property
    def remote_fraction(self) -> float:
        """Cluster-wide fraction of map input read remotely."""
        total = sum(r.counters.get("map_input_bytes", 0.0) for r in self.results)
        if total <= 0:
            return 0.0
        remote = sum(r.counters.get("remote_input_bytes", 0.0) for r in self.results)
        return remote / total


def run_workload_mix(
    nodes: int,
    num_jobs: int = 2,
    scheduler=None,
    stagger_s: float = 0.0,
    data_gb: float = 4.0,
    samples: float = 4e9,
    calib: CalibrationProfile = PAPER_CALIBRATION,
    seed: int = 1234,
    accelerated_fraction: float = 1.0,
    trace: bool = False,
    churn: Optional[ChurnPlan] = None,
    return_cluster: bool = False,
):
    """A canned multi-job workload: alternating AES and Pi jobs.

    Even-indexed jobs encrypt ``data_gb`` GB (delivery-bound: placement
    matters through HDFS block *locality*); odd-indexed jobs estimate
    Pi from ``samples`` samples (compute-bound: placement matters
    through *kernel affinity* — on a partially-accelerated cluster a
    Cell-targeted Pi task that lands on a plain blade falls back to the
    PPE Java kernel at ~1/50th the rate). Both job families target the
    Cell kernel with Java fallback, so ``accelerated_fraction < 1``
    makes placement quality visible in the series. Job *i* arrives at
    ``i * stagger_s`` seconds. Every job wants every slot
    (``num_map_tasks`` = cluster slot count), so concurrent jobs
    genuinely contend — the regime scheduling policies differ in.

    ``churn`` overlays a scripted membership timeline
    (:class:`~repro.hadoop.faults.ChurnPlan`) on the run: blades join
    and leave while the jobs execute, exercising re-execution, runtime
    tracker registration, and — with a preemptive policy — reclamation
    against a moving slot pool. ``None`` leaves the execution path
    untouched.
    """
    sim = SimulatedCluster(
        nodes,
        calib,
        seed=seed,
        trace=trace,
        accelerated_fraction=accelerated_fraction,
        scheduler=scheduler,
    )
    maps = _default_maps(nodes, calib)
    confs: list[JobConf] = []
    for i in range(num_jobs):
        if i % 2 == 0:
            path = f"/data/mix-{i}"
            sim.ingest(path, int(data_gb * GB))
            confs.append(
                JobConf(
                    name=f"mix-aes-{i}",
                    workload="aes",
                    backend=Backend.CELL_SPE_DIRECT,
                    fallback_backend=Backend.JAVA_PPE,
                    input_path=path,
                    num_map_tasks=maps,
                    record_bytes=calib.record_bytes,
                )
            )
        else:
            confs.append(
                JobConf(
                    name=f"mix-pi-{i}",
                    workload="pi",
                    backend=Backend.CELL_SPE_DIRECT,
                    fallback_backend=Backend.JAVA_PPE,
                    samples=samples,
                    num_map_tasks=maps,
                    num_reduce_tasks=1,
                )
            )
    if churn:
        sim.start()
        apply_churn(sim.env, sim, churn)
    arrivals = [i * stagger_s for i in range(num_jobs)]
    results = sim.run_jobs(confs, arrivals=arrivals)
    mix = WorkloadMixResult(
        results=results,
        scheduler=sim.jobtracker.scheduler.name,
        decision_counters=sim.jobtracker.decision_counters(),
    )
    return (mix, sim) if return_cluster else mix


def run_sort_job(
    nodes: int,
    data_bytes: float,
    backend: Backend = Backend.JAVA_PPE,
    calib: CalibrationProfile = PAPER_CALIBRATION,
    num_reduce_tasks: Optional[int] = None,
    seed: int = 1234,
    trace: bool = False,
    return_cluster: bool = False,
):
    """A Terasort-style job (E7's per-node/per-core rate analysis)."""
    sim = SimulatedCluster(nodes, calib, seed=seed, trace=trace)
    sim.ingest("/data/sort-input", int(data_bytes))
    conf = JobConf(
        name=f"sort-{backend.value}",
        workload="sort",
        backend=backend,
        input_path="/data/sort-input",
        num_map_tasks=_default_maps(nodes, calib),
        record_bytes=calib.record_bytes,
        num_reduce_tasks=num_reduce_tasks if num_reduce_tasks is not None else nodes,
    )
    result = sim.run_job(conf)
    return (result, sim) if return_cluster else result
