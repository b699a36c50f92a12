"""Command-line interface for the reproduction.

Run paper experiments and ad-hoc jobs without writing code::

    python -m repro fig2                     # raw encryption figure
    python -m repro fig5 --data-gb 60        # fixed-dataset sweep
    python -m repro fig8 --samples 1e11 --workers 4
    python -m repro scenarios                # list every registered sweep
    python -m repro schedulers               # list placement policies
    python -m repro sweep gpu --grid nodes=2,4,8 --workers 4
    python -m repro sweep fig8 --cache       # whole-sweep + per-point cache
    python -m repro sweep fig8 --compare results/old   # drift report
    python -m repro sweep scale --shard 0/4 --out shards/s0  # one host's part
    python -m repro sweep --merge shards/s0 shards/s1 shards/s2 shards/s3
    python -m repro sweep --cache-prune --max-age-days 30
    python -m repro serve --socket /tmp/repro.sock --workers 4  # daemon
    python -m repro submit fig8 --grid nodes=2,4 --socket /tmp/repro.sock
    python -m repro submit --status --socket /tmp/repro.sock
    python -m repro submit --shutdown --socket /tmp/repro.sock
    python -m repro fleet serve fig8 --port 0 --journal j.jsonl  # coordinator
    python -m repro fleet worker --connect HOST:PORT    # join the fleet
    python -m repro trace fig8 --grid nodes=2 --out trace.json  # Perfetto
    python -m repro metrics fig8 --grid nodes=2     # telemetry report
    python -m repro encrypt --nodes 16 --data-gb 32 --backend cell
    python -m repro pi --nodes 50 --samples 3e12 --backend java
    python -m repro multijob --nodes 8 --jobs 4 --scheduler fair
    python -m repro info                     # calibration summary

Every ``fig*`` command is a thin view over the scenario registry
(:mod:`repro.experiments`): the same declarative definition drives the
serial figures, the parallel sweep driver, the perf harness, and the
golden-series tests. Output is the series-table + ASCII chart format the
benchmark harness prints.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro import runctx
from repro.analysis import (
    Series,
    ascii_chart,
    sweep_metrics_table,
    sweep_summary,
    sweep_timing_table,
)
from repro.analysis.report import (
    decision_counters_table,
    format_table,
    metrics_snapshot_table,
    series_table,
    tenant_latency_table,
    timeseries_summary_table,
)
from repro.experiments import (
    GridError,
    all_scenarios,
    get_scenario,
    parse_grid_overrides,
    run_sweep,
    save_sweep,
)
from repro.perf import Backend, PAPER_CALIBRATION
from repro.perf.calibration import GB, MB
from repro.core import run_empty_job, run_encryption_job, run_pi_job, run_workload_mix
from repro.hadoop.faults import ChurnPlan
from repro.hadoop.metrics import analyze_job
from repro.obs.metrics import MetricsRegistry
from repro.sched import resolve_scheduler, scheduler_names

__all__ = ["main", "build_parser"]

BACKENDS = {
    "java": Backend.JAVA_PPE,
    "java-ppe": Backend.JAVA_PPE,
    "java-power6": Backend.JAVA_POWER6,
    "cell": Backend.CELL_SPE_DIRECT,
    "cell-mr": Backend.CELL_SPE_MAPREDUCE,
    "gpu": Backend.GPU_TESLA,
    "empty": Backend.EMPTY,
}

EPILOG = (
    "Sweeps are declarative scenarios; see docs/EXPERIMENTS.md for the "
    "registry, the parallel-driver determinism contract, and how to add "
    "a scenario."
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_sweep_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1234,
                   help="root seed threaded into every simulated point")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel sweep processes (results are byte-"
                        "identical at any worker count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Speeding Up Distributed MapReduce "
        "Applications Using Hardware Accelerators' (ICPP 2009)",
        epilog=EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the calibration profile")
    sub.add_parser("scenarios", help="list registered sweep scenarios")
    sub.add_parser("schedulers", help="list registered placement policies")

    p2 = sub.add_parser("fig2", help="raw node encryption bandwidth (Fig. 2)")
    _add_sweep_common(p2)

    p6 = sub.add_parser("fig6", help="raw node Pi rates (Fig. 6)")
    _add_sweep_common(p6)

    p4 = sub.add_parser("fig4", help="proportional-dataset encryption (Fig. 4)")
    p4.add_argument("--nodes", type=int, nargs="*", default=[12, 24, 36, 48, 60])
    _add_sweep_common(p4)

    p5 = sub.add_parser("fig5", help="fixed-dataset encryption (Fig. 5)")
    p5.add_argument("--nodes", type=int, nargs="*", default=[4, 8, 16, 32, 64])
    p5.add_argument("--data-gb", type=float, default=120.0)
    _add_sweep_common(p5)

    p7 = sub.add_parser("fig7", help="distributed Pi sample sweep (Fig. 7)")
    p7.add_argument("--nodes", type=int, default=50)
    p7.add_argument(
        "--samples", type=float, nargs="*",
        default=[3e3, 3e5, 3e7, 3e9, 3e11, 3e12],
    )
    _add_sweep_common(p7)

    p8 = sub.add_parser("fig8", help="distributed Pi node scaling (Fig. 8)")
    p8.add_argument("--nodes", type=int, nargs="*", default=[4, 8, 16, 32, 64])
    p8.add_argument("--samples", type=float, default=1e11)
    _add_sweep_common(p8)

    ps = sub.add_parser(
        "sweep",
        help="run any registered scenario's parameter grid",
        epilog=EPILOG,
    )
    ps.add_argument("scenario", nargs="?", default=None,
                    help="registered scenario name (see `repro scenarios`); "
                         "optional with --merge / --cache-prune")
    ps.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2,...",
                    help="override a grid parameter's values or a fixed "
                         "parameter's value; repeatable")
    ps.add_argument("--out", type=Path, default=Path("results"),
                    help="results directory (default: results/)")
    ps.add_argument("--no-save", action="store_true",
                    help="print only; skip writing JSON/CSV results")
    ps.add_argument("-v", "--verbose", action="store_true",
                    help="also print the per-point timing table "
                         "(stragglers first)")
    ps.add_argument("--cache", action="store_true",
                    help="reuse cached results: whole-sweep on an identical "
                         "request, per-point otherwise (only changed grid "
                         "points re-run)")
    ps.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                    help="cache directory (default: <out>/.cache)")
    ps.add_argument("--cache-prune", action="store_true",
                    help="prune the cache directory instead of sweeping "
                         "(see --max-age-days / --max-bytes)")
    ps.add_argument("--max-age-days", type=float, default=None, metavar="D",
                    help="with --cache-prune: drop entries older than D days")
    ps.add_argument("--max-bytes", type=int, default=None, metavar="B",
                    help="with --cache-prune: drop oldest entries until the "
                         "cache fits in B bytes")
    ps.add_argument("--shard", default=None, metavar="I/N",
                    help="run only shard I of N (deterministic round-robin "
                         "partition) into a shard journal in --out; a re-run "
                         "resumes it")
    ps.add_argument("--merge", type=Path, nargs="+", default=None, metavar="DIR",
                    help="merge shard journals from DIR... into one result, "
                         "byte-identical to a serial run")
    ps.add_argument("--compare", type=Path, default=None, metavar="DIR",
                    help="diff the fresh series against <DIR>/<scenario>.json "
                         "and exit non-zero on drift")
    _add_sweep_common(ps)

    pserve = sub.add_parser(
        "serve",
        help="run the simulation daemon: concurrent sweep requests over "
             "a line-JSON protocol, identical requests coalesced",
        epilog="See docs/SERVING.md for the protocol and guarantees.",
    )
    pserve.add_argument("--port", type=int, default=None, metavar="P",
                        help="listen on TCP port P (0 = OS-assigned); "
                             "exclusive with --socket")
    pserve.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default: loopback)")
    pserve.add_argument("--socket", type=Path, default=None, metavar="PATH",
                        help="listen on a unix socket at PATH")
    pserve.add_argument("--workers", type=_positive_int, default=2,
                        help="pool worker processes shared by all jobs")
    pserve.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="serve through the sweep/point cache in DIR")
    pserve.add_argument("--abandon-timeout", type=float, default=30.0,
                        metavar="S",
                        help="cancel a running job S seconds after its last "
                             "streaming client disconnects without cancelling "
                             "(0 disables reaping; default: 30)")
    pserve.add_argument("--log-level", choices=["debug", "info", "warning",
                                                "error"], default="info",
                        help="structured-log threshold on stderr "
                             "(default: info)")
    pserve.add_argument("--log-json", action="store_true",
                        help="emit one JSON object per log line instead of "
                             "key=value text")

    psub = sub.add_parser(
        "submit",
        help="submit a sweep to a running `repro serve` daemon "
             "(or query/cancel/stop it)",
        epilog="See docs/SERVING.md for the protocol and guarantees.",
    )
    psub.add_argument("scenario", nargs="?", default=None,
                      help="registered scenario name; optional with "
                           "--status/--cancel/--shutdown")
    psub.add_argument("--grid", action="append", default=[],
                      metavar="KEY=V1,V2,...",
                      help="override a grid parameter's values or a fixed "
                           "parameter's value; repeatable")
    psub.add_argument("--seed", type=int, default=1234,
                      help="root seed threaded into every simulated point")
    psub.add_argument("--connect", default=None, metavar="[HOST:]PORT",
                      help="daemon TCP address; exclusive with --socket")
    psub.add_argument("--socket", default=None, metavar="PATH",
                      help="daemon unix socket path")
    psub.add_argument("--detach", action="store_true",
                      help="submit and return the job id without waiting "
                           "(recover the result with --status JOB)")
    psub.add_argument("--wait", dest="detach", action="store_false",
                      help="stream progress and wait for the result "
                           "(the default)")
    psub.add_argument("--status", nargs="?", const="", default=None,
                      metavar="JOB",
                      help="print the daemon's job table (or one job; a "
                           "finished job's payload is saved with --out)")
    psub.add_argument("--cancel", default=None, metavar="JOB",
                      help="cancel a queued or running job")
    psub.add_argument("--shutdown", nargs="?", const="graceful", default=None,
                      choices=["graceful", "now"], metavar="MODE",
                      help="stop the daemon (graceful drains running jobs; "
                           "now cancels them)")
    psub.add_argument("--metrics", action="store_true",
                      help="print the daemon's Prometheus text exposition "
                           "and exit")
    psub.add_argument("--retries", type=int, default=0, metavar="N",
                      help="retry an unreachable daemon or a mid-stream "
                           "disconnect up to N times (default: 0); submits "
                           "are idempotent, so a retry coalesces onto the "
                           "in-flight job or hits the result cache")
    psub.add_argument("--backoff", type=float, default=0.5, metavar="S",
                      help="base retry delay in seconds; actual delays are "
                           "S * 2**attempt with +/-50%% jitter (default: 0.5)")
    psub.add_argument("--out", type=Path, default=None, metavar="DIR",
                      help="save the served result like `repro sweep --out` "
                           "(byte-identical files)")
    psub.add_argument("-v", "--verbose", action="store_true",
                      help="print each point completion as it streams in")

    pfl = sub.add_parser(
        "fleet",
        help="distributed sweep fabric: a coordinator handing out point "
             "leases to a fleet of workers, with failure detection, "
             "re-dispatch, and crash-resume",
        epilog="See docs/FAULT_TOLERANCE.md for the failure model and "
               "tuning.",
    )
    pflsub = pfl.add_subparsers(dest="fleet_command", required=True)

    pfs = pflsub.add_parser(
        "serve",
        help="coordinate one sweep across connecting workers; exits when "
             "the sweep completes (or fails loudly)",
    )
    pfs.add_argument("scenario",
                     help="registered scenario name (see `repro scenarios`)")
    pfs.add_argument("--grid", action="append", default=[],
                     metavar="KEY=V1,V2,...",
                     help="override a grid parameter's values or a fixed "
                          "parameter's value; repeatable")
    pfs.add_argument("--seed", type=int, default=1234,
                     help="root seed threaded into every simulated point")
    pfs.add_argument("--port", type=int, default=None, metavar="P",
                     help="listen on TCP port P (0 = OS-assigned); "
                          "exclusive with --socket")
    pfs.add_argument("--host", default="127.0.0.1",
                     help="TCP bind address (default: loopback)")
    pfs.add_argument("--socket", type=Path, default=None, metavar="PATH",
                     help="listen on a unix socket at PATH")
    pfs.add_argument("--journal", type=Path, default=None, metavar="PATH",
                     help="journal accepted points to PATH; restarting with "
                          "the same journal resumes instead of re-running")
    pfs.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                     help="serve through the sweep/point cache in DIR")
    pfs.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="save the merged result like `repro sweep --out` "
                          "(byte-identical files)")
    pfs.add_argument("--worker-timeout", type=float, default=5.0, metavar="S",
                     help="heartbeat silence before a worker is declared "
                          "dead and its leases re-dispatch (default: 5)")
    pfs.add_argument("--lease-timeout", type=float, default=60.0, metavar="S",
                     help="max runtime of one leased point before "
                          "re-dispatch (default: 60)")
    pfs.add_argument("--batch-size", type=_positive_int, default=4,
                     help="max points granted per lease (default: 4)")
    pfs.add_argument("--max-attempts", type=_positive_int, default=3,
                     help="failed attempts per point before quarantine "
                          "aborts the sweep (default: 3)")
    pfs.add_argument("--retry-backoff", type=float, default=0.25, metavar="S",
                     help="base retry delay; attempt n waits S * 2**(n-1) "
                          "(default: 0.25)")
    pfs.add_argument("--no-worker-timeout", type=float, default=30.0,
                     metavar="S",
                     help="abort when no live worker exists for S seconds "
                          "(default: 30)")
    pfs.add_argument("--linger", type=float, default=1.0, metavar="S",
                     help="keep answering `done` for S seconds after the "
                          "sweep completes so workers exit cleanly")
    pfs.add_argument("--chaos-crash-after", type=int, default=None,
                     metavar="N",
                     help="fault injection: crash after accepting N results, "
                          "leaving the journal (exit 7); for chaos testing")
    pfs.add_argument("--log-level", choices=["debug", "info", "warning",
                                             "error"], default="info",
                     help="structured-log threshold on stderr")
    pfs.add_argument("--log-json", action="store_true",
                     help="emit one JSON object per log line")

    pfw = pflsub.add_parser(
        "worker",
        help="join a fleet: register with the coordinator, heartbeat, "
             "execute leased points, stream results back",
    )
    pfw.add_argument("--connect", default=None, metavar="[HOST:]PORT",
                     help="coordinator TCP address; exclusive with --socket")
    pfw.add_argument("--socket", default=None, metavar="PATH",
                     help="coordinator unix socket path")
    pfw.add_argument("--name", default=None,
                     help="stable worker identity (default: <host>-<pid>)")
    pfw.add_argument("--capacity", type=_positive_int, default=1,
                     help="concurrent points to advertise (default: 1)")
    pfw.add_argument("--heartbeat", type=float, default=0.2, metavar="S",
                     help="base heartbeat cadence, jittered ±50%% "
                          "(default: 0.2)")
    pfw.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                     help="consult/update the point cache in DIR")
    pfw.add_argument("--reconnect-timeout", type=float, default=30.0,
                     metavar="S",
                     help="give up after the coordinator is unreachable "
                          "for S seconds (default: 30)")
    pfw.add_argument("--chaos-kill-after", type=int, default=None,
                     metavar="N",
                     help="fault injection: die abruptly after delivering "
                          "N results (exit 7); for chaos testing")
    pfw.add_argument("--log-level", choices=["debug", "info", "warning",
                                             "error"], default="info",
                     help="structured-log threshold on stderr")
    pfw.add_argument("--log-json", action="store_true",
                     help="emit one JSON object per log line")

    ptr = sub.add_parser(
        "trace",
        help="run one grid point with span tracing on and export a "
             "Chrome-trace/Perfetto JSON timeline",
        epilog="Open the file at https://ui.perfetto.dev or "
               "chrome://tracing; see docs/OBSERVABILITY.md.",
    )
    ptr.add_argument("scenario",
                     help="registered scenario name (see `repro scenarios`)")
    ptr.add_argument("--grid", action="append", default=[],
                     metavar="KEY=V1,V2,...",
                     help="override a grid parameter's values or a fixed "
                          "parameter's value; repeatable")
    ptr.add_argument("--point", type=int, default=0, metavar="N",
                     help="canonical grid point index to trace (default: 0)")
    ptr.add_argument("--out", type=Path, default=Path("trace.json"),
                     help="output JSON path (default: trace.json)")
    ptr.add_argument("--seed", type=int, default=1234,
                     help="root seed threaded into the simulated point")

    pmx = sub.add_parser(
        "metrics",
        help="run one grid point with telemetry on and print its metric "
             "and virtual-time-series report",
        epilog="See docs/OBSERVABILITY.md for the metric catalog.",
    )
    pmx.add_argument("scenario",
                     help="registered scenario name (see `repro scenarios`)")
    pmx.add_argument("--grid", action="append", default=[],
                     metavar="KEY=V1,V2,...",
                     help="override a grid parameter's values or a fixed "
                          "parameter's value; repeatable")
    pmx.add_argument("--point", type=int, default=0, metavar="N",
                     help="canonical grid point index to run (default: 0)")
    pmx.add_argument("--seed", type=int, default=1234,
                     help="root seed threaded into the simulated point")

    pe = sub.add_parser("encrypt", help="one distributed encryption job")
    pe.add_argument("--nodes", type=int, default=8)
    pe.add_argument("--data-gb", type=float, default=16.0)
    pe.add_argument("--backend", choices=sorted(BACKENDS), default="cell")
    pe.add_argument("--seed", type=int, default=1234)
    pe.add_argument("--scheduler", choices=scheduler_names(), default=None,
                    help="placement policy (default: fifo)")

    pp = sub.add_parser("pi", help="one distributed Pi job")
    pp.add_argument("--nodes", type=int, default=8)
    pp.add_argument("--samples", type=float, default=1e10)
    pp.add_argument("--backend", choices=sorted(BACKENDS), default="cell")
    pp.add_argument("--seed", type=int, default=1234)
    pp.add_argument("--scheduler", choices=scheduler_names(), default=None,
                    help="placement policy (default: fifo)")

    pm = sub.add_parser(
        "multijob",
        help="a multi-job workload (alternating AES/Pi) under one policy",
    )
    pm.add_argument("--nodes", type=int, default=8)
    pm.add_argument("--jobs", type=_positive_int, default=3,
                    help="number of jobs in the mix")
    pm.add_argument("--stagger", type=float, default=5.0,
                    help="seconds between job arrivals")
    pm.add_argument("--data-gb", type=float, default=2.0,
                    help="input size of each AES job")
    pm.add_argument("--samples", type=float, default=2e9,
                    help="sample count of each Pi job")
    pm.add_argument("--accelerated-fraction", type=float, default=1.0,
                    help="fraction of blades with Cell sockets")
    pm.add_argument("--scheduler", choices=scheduler_names(), default="fifo")
    pm.add_argument("--seed", type=int, default=1234)
    pm.add_argument("--churn", action="append", default=None, metavar="SPEC",
                    help="membership churn event, repeatable: join@T, "
                         "leave@T[:NODE], or storm@T:K[/W] (K youngest "
                         "blades revoked from T over a W-second window)")

    return parser


def _print_series(series: list[Series], x_name: str, ylabel: str, title: str, out) -> None:
    print(title, file=out)
    print(series_table(series, x_name=x_name), file=out)
    print(file=out)
    print(ascii_chart(series, title=title, xlabel=x_name, ylabel=ylabel), file=out)


def _cmd_info(out) -> int:
    calib = PAPER_CALIBRATION
    rows = [
        {"parameter": "AES Cell direct plateau", "value": f"{calib.aes_cell_direct_bw / MB:.0f} MB/s"},
        {"parameter": "AES MR-Cell plateau", "value": f"{calib.aes_cell_mr_bw / MB:.0f} MB/s"},
        {"parameter": "AES Power6", "value": f"{calib.aes_power6_bw / MB:.0f} MB/s"},
        {"parameter": "AES PPE", "value": f"{calib.aes_ppe_bw / MB:.0f} MB/s"},
        {"parameter": "Pi Cell rate", "value": f"{calib.pi_cell_rate:.2e} samples/s"},
        {"parameter": "Pi Power6 rate", "value": f"{calib.pi_power6_rate:.2e} samples/s"},
        {"parameter": "Pi PPE rate", "value": f"{calib.pi_ppe_rate:.2e} samples/s"},
        {"parameter": "SPU init overhead", "value": f"{calib.pi_spu_init_s} s"},
        {"parameter": "RecordReader stream", "value": f"{calib.recordreader_stream_bw / MB:.0f} MB/s"},
        {"parameter": "HDFS block / record", "value": f"{calib.hdfs_block_bytes / MB:.0f} MB"},
        {"parameter": "SPU chunk", "value": f"{calib.cell_chunk_bytes} B"},
        {"parameter": "mappers per blade", "value": str(calib.mappers_per_node)},
        {"parameter": "heartbeat interval", "value": f"{calib.heartbeat_interval_s} s"},
        {"parameter": "GigE effective", "value": f"{calib.gige_bw / MB:.0f} MB/s"},
    ]
    print(format_table(rows), file=out)
    return 0


def _cmd_scenarios(out) -> int:
    rows = []
    for sc in all_scenarios():
        grid = "; ".join(f"{k}={','.join(str(v) for v in vs)}" for k, vs in sc.grid.items())
        fixed = "; ".join(f"{k}={v}" for k, v in sc.defaults.items()) or "-"
        rows.append({
            "scenario": sc.name,
            "figure": sc.figure or "-",
            "curves": len(sc.curves),
            "grid": grid,
            "fixed": fixed,
        })
    print(format_table(rows), file=out)
    print(file=out)
    print(EPILOG, file=out)
    return 0


def _cmd_schedulers(out) -> int:
    rows = []
    for name in scheduler_names():
        policy = resolve_scheduler(name)
        rows.append({
            "scheduler": name,
            "class": type(policy).__name__,
            "description": policy.describe(),
        })
    print(format_table(rows), file=out)
    print(file=out)
    print("Select with --scheduler, JobConf(scheduler=...), or "
          "SimulatedCluster(scheduler=...); see docs/SCHEDULING.md.", file=out)
    return 0


#: fig* command → scenario override builder. Each maps the command's
#: legacy flags onto registry overrides so the CLI surface is unchanged.
_FIG_OVERRIDES = {
    "fig2": lambda args: {},
    "fig4": lambda args: {"nodes": args.nodes},
    "fig5": lambda args: {"nodes": args.nodes, "data_gb": args.data_gb},
    "fig6": lambda args: {},
    "fig7": lambda args: {"nodes": args.nodes, "samples": args.samples},
    "fig8": lambda args: {"nodes": args.nodes, "samples": args.samples},
}


def _cmd_fig(args, out) -> int:
    result = run_sweep(
        args.command,
        _FIG_OVERRIDES[args.command](args),
        seed=args.seed,
        workers=args.workers,
    )
    _print_series(result.series, result.xlabel, result.ylabel, result.title, out)
    return 0


def _cmd_sweep(args, out) -> int:
    # Usage errors (unknown scenario, malformed/unknown grid values or
    # shard specs, inconsistent shard sets) get a friendly message +
    # exit 2; failures inside a running scenario propagate with their
    # traceback.
    from repro.experiments.cache import cached_sweep, prune_cache
    from repro.experiments.compare import compare_result_to_dir
    from repro.experiments.driver import (
        ShardError,
        merge_shards,
        parse_shard_spec,
        run_shard,
    )

    cache_dir = args.cache_dir if args.cache_dir is not None else args.out / ".cache"
    if args.cache_prune:
        stats = prune_cache(cache_dir, max_age_days=args.max_age_days,
                            max_bytes=args.max_bytes)
        print(f"cache prune ({cache_dir}): removed {stats.removed}/"
              f"{stats.scanned} entries ({stats.freed_bytes} bytes freed), "
              f"{stats.kept} kept ({stats.kept_bytes} bytes)", file=out)
        return 0
    if args.shard is not None and args.merge is not None:
        print("error: --shard runs one partition, --merge reassembles "
              "finished ones; use one at a time", file=out)
        return 2
    if args.shard is not None and (args.compare or args.cache or args.no_save):
        # Refuse rather than silently ignore: a shard produces a partial
        # journal, so there is nothing to compare/cache, and writing
        # the journal is its entire purpose.
        print("error: --shard only writes a shard journal; --compare/"
              "--cache/--no-save apply to full sweeps or --merge", file=out)
        return 2

    if args.merge is not None:
        try:
            result = merge_shards(args.merge)
        except ShardError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(f"merged {len(args.merge)} shard dir(s) into "
              f"{result.scenario}: {len(result.points)} points", file=out)
    else:
        if args.scenario is None:
            print("error: a scenario name is required unless --merge or "
                  "--cache-prune is given (see `repro scenarios`)", file=out)
            return 2
        try:
            overrides = parse_grid_overrides(args.grid)
            scenario = get_scenario(args.scenario).with_overrides(
                overrides, seed=args.seed
            )
            if args.shard is not None:
                index, count = parse_shard_spec(args.shard)
        except (GridError, KeyError, ShardError) as exc:
            msg = exc.args[0] if exc.args else str(exc)
            print(f"error: {msg}", file=out)
            return 2
        if args.shard is not None:
            ledger = run_shard(scenario, index, count, args.out,
                               workers=args.workers)
            print(f"shard {index}/{count} of {scenario.name}: ran "
                  f"{len(ledger.fresh)} point(s), {ledger.prefilled} resumed "
                  f"from the journal, of {ledger.total}; wrote "
                  f"{ledger.journal.path}", file=out)
            print("merge a complete set with: repro sweep --merge DIR...",
                  file=out)
            return 0
        if args.cache:
            result, hit = cached_sweep(scenario, workers=args.workers,
                                       cache_dir=cache_dir)
            if hit:
                print(f"cache hit ({cache_dir}): reusing stored series", file=out)
            elif result.cached_points:
                print(f"point cache ({cache_dir}): {result.executed_points} "
                      f"point(s) ran, {result.cached_points} assembled from "
                      f"cache", file=out)
        else:
            # -v also collects each point's telemetry snapshot (counters
            # ride back beside the timing data; canonical bytes are
            # unaffected because snapshots are non-canonical row extras).
            result = run_sweep(scenario, workers=args.workers,
                               collect_metrics=args.verbose)
    _print_series(result.series, result.xlabel, result.ylabel, result.title, out)
    print(file=out)
    print(sweep_summary(result.series, x_name=result.xlabel), file=out)
    if args.verbose:
        print(file=out)
        print(sweep_timing_table(result.points), file=out)
        metrics_block = sweep_metrics_table(result.points)
        if metrics_block:
            print(file=out)
            print(metrics_block, file=out)
        print(file=out)
        print(f"points: {result.executed_points} executed, "
              f"{result.cached_points} assembled from cache", file=out)
    print(file=out)
    method = f", {result.start_method} pool" if result.start_method else ""
    print(f"sweep {result.scenario}: {len(result.points)} points, "
          f"{result.workers} worker(s){method}, {result.elapsed_s:.2f}s, "
          f"sha256 {result.sha256()[:16]}", file=out)
    if not args.no_save:
        paths = save_sweep(result, args.out)
        print(f"wrote {paths['json']} {paths['csv']} {paths['meta']}", file=out)
    if args.compare is not None:
        report = compare_result_to_dir(result, args.compare)
        print(file=out)
        print(report.format(), file=out)
        if report.has_drift:
            return 3
    return 0


def _cmd_serve(args, out) -> int:
    from repro.serve import ReproServer
    from repro.serve.logs import configure_logging

    if (args.port is None) == (args.socket is None):
        print("error: exactly one of --port and --socket is required", file=out)
        return 2
    configure_logging(args.log_level, json_mode=args.log_json)
    server = ReproServer(
        port=args.port,
        socket_path=args.socket,
        host=args.host,
        workers=args.workers,
        cache_dir=args.cache_dir,
        abandon_timeout_s=args.abandon_timeout or None,
    )
    server.start()
    cache = f", cache {args.cache_dir}" if args.cache_dir else ""
    print(f"repro serve: listening on {server.endpoint()} "
          f"({server.workers} worker(s){cache}); stop with "
          f"`repro submit --shutdown`", file=out)
    out.flush()
    try:
        server.wait()
    except KeyboardInterrupt:
        server.shutdown(mode="now")
    print("repro serve: shut down cleanly", file=out)
    return 0


def _cmd_fleet_serve(args, out) -> int:
    # Exit codes: 0 sweep completed, 1 fleet failure (dead fleet,
    # poison points), 2 usage, 7 deliberate chaos crash (journal kept).
    from repro.fabric import FleetCoordinator, TrackerConfig
    from repro.fabric.chaos import CoordinatorChaos
    from repro.serve.logs import configure_logging

    if (args.port is None) == (args.socket is None):
        print("error: exactly one of --port and --socket is required",
              file=out)
        return 2
    configure_logging(args.log_level, json_mode=args.log_json)
    chaos = (CoordinatorChaos(crash_after_results=args.chaos_crash_after)
             if args.chaos_crash_after is not None else None)
    try:
        overrides = parse_grid_overrides(args.grid)
        coord = FleetCoordinator(
            args.scenario, overrides, seed=args.seed,
            port=args.port, socket_path=args.socket, host=args.host,
            config=TrackerConfig(
                worker_timeout_s=args.worker_timeout,
                lease_timeout_s=args.lease_timeout,
                batch_size=args.batch_size,
                max_attempts=args.max_attempts,
                retry_backoff_s=args.retry_backoff,
            ),
            journal_path=args.journal, cache_dir=args.cache_dir,
            no_worker_timeout_s=args.no_worker_timeout,
            linger_s=args.linger, chaos=chaos,
        )
    except (GridError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=out)
        return 2
    coord.start()
    resumed = len(coord.journal.resumed) if coord.journal else 0
    via = f", resuming {resumed} journaled point(s)" if resumed else ""
    print(f"repro fleet: coordinating {coord.scenario.name} "
          f"({coord.total} points) on {coord.endpoint()}{via}; join with "
          f"`repro fleet worker --connect {coord.endpoint()}`", file=out)
    out.flush()
    try:
        coord.wait()
    except KeyboardInterrupt:
        coord.close()
        print("fleet: interrupted", file=out)
        return 1
    if coord.crashed:
        print(f"fleet: {coord.error}", file=out)
        return 7
    if coord.result is None:
        print(f"error: {coord.error}", file=out)
        return 1
    result = coord.result
    stats = coord.stats()
    _print_series(result.series, result.xlabel, result.ylabel,
                  result.title, out)
    print(file=out)
    print(sweep_summary(result.series, x_name=result.xlabel), file=out)
    print(file=out)
    print(f"fleet {result.scenario}: {len(result.points)} points "
          f"({stats['results_accepted']} from workers, "
          f"{result.cached_points} prefilled), "
          f"{stats['redispatched']} re-dispatched, "
          f"{stats['duplicates']} duplicates dropped, "
          f"{stats['speculative_wins']} speculative win(s), "
          f"sha256 {result.sha256()[:16]}", file=out)
    if args.out is not None:
        paths = save_sweep(result, args.out)
        print(f"wrote {paths['json']} {paths['csv']} {paths['meta']}",
              file=out)
    return 0


def _cmd_fleet_worker(args, out) -> int:
    # Exit codes: 0 sweep done, 1 fleet aborted/unreachable, 2 usage,
    # 7 deliberate chaos death.
    from repro.fabric import FleetError, FleetWorker
    from repro.fabric.chaos import WorkerChaos
    from repro.serve import Address
    from repro.serve.logs import configure_logging

    if (args.connect is None) == (args.socket is None):
        print("error: exactly one of --connect and --socket is required",
              file=out)
        return 2
    configure_logging(args.log_level, json_mode=args.log_json)
    address = Address.parse(args.connect, args.socket)
    chaos = (WorkerChaos(kill_after_results=args.chaos_kill_after)
             if args.chaos_kill_after is not None else None)
    worker = FleetWorker(
        address, name=args.name, capacity=args.capacity,
        heartbeat_s=args.heartbeat, cache_dir=args.cache_dir,
        reconnect_timeout_s=args.reconnect_timeout, chaos=chaos,
    )
    try:
        report = worker.run()
    except FleetError as exc:
        print(f"error: {exc}", file=out)
        return 1
    if report["killed"]:
        print(f"worker {report['worker']}: chaos-killed after "
              f"{report['results_sent']} result(s)", file=out)
        return 7
    print(f"worker {report['worker']}: done — {report['results_sent']} "
          f"result(s) delivered, {report['cache_hits']} from point cache, "
          f"{report['reconnects']} reconnect(s)", file=out)
    return 0


def _print_served_result(event, args, out) -> int:
    import json as _json

    from repro.experiments.driver import SweepResult

    result = SweepResult.from_dict(_json.loads(event["payload"]))
    _print_series(result.series, result.xlabel, result.ylabel, result.title, out)
    print(file=out)
    print(sweep_summary(result.series, x_name=result.xlabel), file=out)
    print(file=out)
    origin = ("whole-sweep cache" if event.get("cache_hit")
              else f"{event.get('executed_points', 0)} executed, "
                   f"{event.get('cached_points', 0)} from point cache")
    print(f"served {result.scenario}: {len(result.points)} points "
          f"({origin}), sha256 {event['sha256'][:16]}", file=out)
    if args.out is not None:
        paths = save_sweep(result, args.out)
        print(f"wrote {paths['json']} {paths['csv']} {paths['meta']}", file=out)
    return 0


def _stream_submit(address, request, args, out) -> Optional[int]:
    """One submit attempt against the daemon. Returns an exit code, or
    None when the server closed the stream without a terminal event —
    a mid-stream disconnect the caller may retry (submits coalesce, so
    a retry attaches to the in-flight job rather than recomputing)."""
    from repro.serve import request_stream

    for event in request_stream(address, request):
        kind = event.get("event")
        if kind == "accepted":
            via = " (coalesced onto in-flight job)" if event["coalesced"] else ""
            print(f"accepted {event['job']}{via}: {event['done']}/"
                  f"{event['total']} points, key "
                  f"{event['request_key'][:16]}", file=out)
            if args.detach:
                print(f"detached; poll with: repro submit --status "
                      f"{event['job']}", file=out)
                return 0
        elif kind == "point" and args.verbose:
            params = " ".join(f"{k}={v}" for k, v in event["params"].items())
            print(f"  point {event['done']}/{event['total']}: {params}",
                  file=out)
        elif kind == "result":
            return _print_served_result(event, args, out)
        elif kind == "cancelled":
            print(f"job {event['job']} cancelled", file=out)
            return 3
        elif kind == "error":
            print(f"error: {event['message']}", file=out)
            return 1 if "job" in event else 2
    return None


def _cmd_submit(args, out) -> int:
    # Exit codes mirror `repro sweep`, with one addition: 0 served,
    # 1 job failed, 2 usage/protocol error, 3 job cancelled, 4 daemon
    # unreachable (connection refused, dead socket, or a mid-stream
    # disconnect that survived every --retries attempt) — so scripts
    # can tell "the job is bad" from "the daemon is down".
    from repro.analysis.report import serve_jobs_table
    from repro.serve import (
        Address,
        ProtocolError,
        protocol,
        request_one,
        retry_delays,
    )

    try:
        address = Address.parse(args.connect, args.socket)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.retries < 0 or args.backoff < 0:
        print("error: --retries and --backoff must be >= 0", file=out)
        return 2

    control = [opt for opt in ("status", "cancel", "shutdown")
               if getattr(args, opt) is not None]
    if args.metrics:
        control.append("metrics")
    if len(control) > 1 or (control and args.scenario is not None):
        print("error: --status/--cancel/--shutdown/--metrics are exclusive "
              "control verbs and take no scenario", file=out)
        return 2

    try:
        if args.metrics:
            event = request_one(address, {"verb": "metrics"})
            if event.get("event") == "error":
                print(f"error: {event['message']}", file=out)
                return 2
            print(event["text"], end="", file=out)
            return 0
        if args.status is not None:
            msg = {"verb": "status"}
            if args.status:
                msg["job"] = args.status
            event = request_one(address, msg)
            if event.get("event") == "error":
                print(f"error: {event['message']}", file=out)
                return 2
            print(serve_jobs_table(event["jobs"]), file=out)
            stats = event["stats"]
            print(file=out)
            print(f"daemon: {stats['active_jobs']} active / {stats['jobs']} "
                  f"job(s), {stats['coalesced_submits']} coalesced submit(s), "
                  f"{stats['points_executed']} point(s) executed, "
                  f"{stats['cache_hits']} cache hit(s), "
                  f"{stats['workers']} worker(s), "
                  f"up {stats['uptime_s']:.1f}s", file=out)
            row = event["jobs"][0] if args.status and event["jobs"] else None
            if row is not None and "payload" in row and args.out is not None:
                return _print_served_result(
                    {**row, "event": "result", "payload": row["payload"]},
                    args, out)
            return 0
        if args.cancel is not None:
            event = request_one(address, {"verb": "cancel", "job": args.cancel})
            print(f"cancel {args.cancel}: {event['state']}", file=out)
            return 0 if event.get("ok") else 2
        if args.shutdown is not None:
            event = request_one(
                address, {"verb": "shutdown", "mode": args.shutdown})
            print(f"shutdown ({args.shutdown}): "
                  f"{'ok' if event.get('ok') else event}", file=out)
            return 0 if event.get("ok") else 2

        if args.scenario is None:
            print("error: a scenario name is required unless --status/"
                  "--cancel/--shutdown is given", file=out)
            return 2
        try:
            overrides = parse_grid_overrides(args.grid)
        except GridError as exc:
            msg = exc.args[0] if exc.args else str(exc)
            print(f"error: {msg}", file=out)
            return 2
        request = protocol.submit_request(
            args.scenario, overrides, seed=args.seed, detach=args.detach
        )
    except ProtocolError as exc:
        print(f"error: daemon at {address} answered garbage: {exc}", file=out)
        return 2
    except OSError as exc:
        print(f"error: cannot reach daemon at {address}: {exc}", file=out)
        return 4

    delays = retry_delays(args.retries, args.backoff)
    attempt = 0
    while True:
        try:
            code = _stream_submit(address, request, args, out)
            failure = ("server closed the connection without a terminal "
                       "event") if code is None else None
        except ProtocolError as exc:
            print(f"error: daemon at {address} answered garbage: {exc}",
                  file=out)
            return 2
        except OSError as exc:
            code, failure = None, str(exc)
        if code is not None:
            return code
        delay = next(delays, None)
        if delay is None:
            print(f"error: cannot reach daemon at {address}: {failure}"
                  + (f" (after {attempt} retr"
                     f"{'y' if attempt == 1 else 'ies'})" if attempt else ""),
                  file=out)
            return 4
        attempt += 1
        print(f"daemon at {address} unreachable ({failure}); retry "
              f"{attempt}/{args.retries} in {delay:.2f}s", file=out)
        out.flush()
        time.sleep(delay)


def _resolve_point(args, out):
    """Bind scenario + --grid + --point to one grid config.

    Returns ``(scenario, cfg, 0)`` or ``(None, None, 2)`` after printing
    a usage error — the shared front half of `repro trace` / `repro
    metrics`, which both run exactly one point in-process.
    """
    try:
        overrides = parse_grid_overrides(args.grid)
        sc = get_scenario(args.scenario).with_overrides(overrides, seed=args.seed)
    except (GridError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=out)
        return None, None, 2
    points = sc.points()
    if not 0 <= args.point < len(points):
        print(f"error: --point {args.point} out of range; {sc.name} has "
              f"{len(points)} point(s)", file=out)
        return None, None, 2
    return sc, points[args.point], 0


def _point_params(cfg) -> str:
    return " ".join(f"{k}={v}" for k, v in cfg.items() if k != "seed")


def _cmd_trace(args, out) -> int:
    from repro.obs.traceexport import TraceCollector, write_chrome_trace

    sc, cfg, code = _resolve_point(args, out)
    if sc is None:
        return code
    collector = TraceCollector()
    with runctx.using(replace(runctx.current(), traces=collector)):
        values = dict(sc.run_point(cfg))
    trace = write_chrome_trace(args.out, collector=collector)
    print(f"traced {sc.name} point {args.point}: {_point_params(cfg)}", file=out)
    print("values: " + " ".join(f"{k}={v}" for k, v in values.items()), file=out)
    dropped = (f", {collector.dropped} record(s) ring-dropped"
               if collector.dropped else "")
    print(f"wrote {args.out}: {len(trace['traceEvents'])} events "
          f"({collector.span_count()} spans, {collector.record_count()} "
          f"instants) from {len(collector.tracers)} tracer(s){dropped}",
          file=out)
    print("open at https://ui.perfetto.dev or chrome://tracing", file=out)
    return 0


def _cmd_metrics(args, out) -> int:
    sc, cfg, code = _resolve_point(args, out)
    if sc is None:
        return code
    metrics = MetricsRegistry()
    with runctx.using(replace(runctx.current(), metrics=metrics)):
        values = dict(sc.run_point(cfg))
    snapshot = metrics.snapshot()
    print(f"metrics for {sc.name} point {args.point}: {_point_params(cfg)}",
          file=out)
    print("values: " + " ".join(f"{k}={v}" for k, v in values.items()), file=out)
    print(file=out)
    print(metrics_snapshot_table(snapshot), file=out)
    print(file=out)
    print(timeseries_summary_table(snapshot), file=out)
    return 0


def _cluster_mix(backend: Backend) -> dict:
    """Node-hardware mix implied by the chosen backend: the gpu alias
    needs GPU-equipped (not Cell-equipped) workers to schedule onto."""
    if backend is Backend.GPU_TESLA:
        return {"accelerated_fraction": 0.0, "gpu_fraction": 1.0}
    return {}


def _cmd_encrypt(args, out) -> int:
    backend = BACKENDS[args.backend]
    if backend is Backend.EMPTY:
        result = run_empty_job(args.nodes, args.data_gb * GB, seed=args.seed,
                               scheduler=args.scheduler)
    else:
        result = run_encryption_job(
            args.nodes, args.data_gb * GB, backend, seed=args.seed,
            scheduler=args.scheduler, **_cluster_mix(backend),
        )
    _print_job(result, out)
    return 0 if result.succeeded else 1


def _cmd_pi(args, out) -> int:
    backend = BACKENDS[args.backend]
    result = run_pi_job(
        args.nodes, args.samples, backend, seed=args.seed,
        scheduler=args.scheduler, **_cluster_mix(backend),
    )
    _print_job(result, out)
    return 0 if result.succeeded else 1


def _cmd_multijob(args, out) -> int:
    churn = None
    if args.churn:
        try:
            churn = ChurnPlan.parse(args.churn)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    mix = run_workload_mix(
        args.nodes,
        num_jobs=args.jobs,
        scheduler=args.scheduler,
        stagger_s=args.stagger,
        data_gb=args.data_gb,
        samples=args.samples,
        accelerated_fraction=args.accelerated_fraction,
        seed=args.seed,
        churn=churn,
    )
    print(format_table([r.summary() for r in mix.results]), file=out)
    print(file=out)
    per_workload: dict[str, list[float]] = {}
    for r in mix.results:
        per_workload.setdefault(r.name.rsplit("-", 1)[0], []).append(r.makespan_s)
    print(tenant_latency_table(per_workload), file=out)
    print(file=out)
    print(format_table([{
        "scheduler": args.scheduler,
        "jobs": len(mix.results),
        "workload_makespan_s": round(mix.makespan_s, 3),
        "mean_completion_s": round(mix.mean_completion_s, 3),
        "remote_fraction": round(mix.remote_fraction, 4),
    }]), file=out)
    print(file=out)
    print(decision_counters_table({mix.scheduler: mix.decision_counters}),
          file=out)
    return 0 if mix.succeeded else 1


def _print_job(result, out) -> None:
    print(format_table([result.summary()]), file=out)
    breakdown = analyze_job(result, PAPER_CALIBRATION)
    print(file=out)
    print(format_table([breakdown.summary()]), file=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info(out)
    if args.command == "scenarios":
        return _cmd_scenarios(out)
    if args.command == "schedulers":
        return _cmd_schedulers(out)
    if args.command in _FIG_OVERRIDES:
        return _cmd_fig(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "submit":
        return _cmd_submit(args, out)
    if args.command == "fleet":
        if args.fleet_command == "serve":
            return _cmd_fleet_serve(args, out)
        return _cmd_fleet_worker(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "metrics":
        return _cmd_metrics(args, out)
    if args.command == "encrypt":
        return _cmd_encrypt(args, out)
    if args.command == "pi":
        return _cmd_pi(args, out)
    if args.command == "multijob":
        return _cmd_multijob(args, out)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
