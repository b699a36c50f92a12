"""Reference values the benchmark checks the program's outputs against,
and how an output is compared with them.

Frozen here, in the benchmark's own files, so a change elsewhere in the
repository cannot move the target it is checked against.
"""

import hashlib
import json

#: sha256 of each paper figure's canonical sweep JSON at the paper's
#: default grid and the scenario seed (1234); the same bytes the golden
#: tests freeze.
FIGURE_SHA256 = {
    "fig2": "6ea18daf5937d26100d8b7c73ccb2516c7990e72263dd197b5664d1aac7130c9",
    "fig4": "a00de2e5d41e4c23df4173fa03913c701bb173441b82992d07cc7ad865e68fb2",
    "fig5": "648ef28ceec42c00ee2a819111cfafe110d959b02bd60bd56dded2f41dba94a7",
    "fig6": "4c7a93dadc191c36547aed73382e9ea2948ff5244d311567115050839164ed24",
    "fig7": "c50eb9824df77d3afcbd1a9112fea123be9eae65b4cc47e8b7bc441635bebb13",
    "fig8": "92541b55b53ca30fa80f87343744f199641855dfd0a8c809e04345aaa28404b7",
}

#: Per-policy mean job completion (simulated seconds) of the ``scale``
#: scenario's 1024-node point: 4-job AES+Pi mix, seed 1234. The values
#: ``benchmarks/run_perf.py`` froze from the seed tree.
SCALE_1024_MEAN_COMPLETION_S = {
    "FIFO": 907.995596269413,
    "Fair": 1086.3955962693315,
    "Locality-aware": 908.0080962694128,
    "Accel-aware": 907.995596269413,
}

#: The paper's numeric Fig. 2 anchors (Becerra et al., ICPP 2009, Sec.
#: IV-A): (curve label, working-set MB, MB/s). The Cell kernel plateaus
#: near 700 MB/s; one POWER6 core encrypts about 45 MB/s. Read at 512 MB,
#: the point the repository's Fig. 2 shape tests check.
FIG2_ANCHORS = (
    ("Cell BE", 512.0, 700.0),
    ("Power 6", 512.0, 45.0),
)


def fidelity_max_rel_err(fig2_series: dict) -> float:
    """Largest relative error of a Fig. 2 result against the anchors.
    ``fig2_series`` maps curve label to ``[xs, ys]``."""
    errs = []
    for label, x, paper in FIG2_ANCHORS:
        xs, ys = fig2_series[label]
        errs.append(abs(ys[xs.index(x)] - paper) / paper)
    return max(errs)


def canonical_sha256(payload: dict) -> str:
    """sha256 of a sweep result's canonical JSON (sorted keys, no
    whitespace), recomputed from a served payload or a saved result."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def series_of(payload: dict) -> dict:
    """Curve label -> ``[xs, ys]`` of a canonical sweep payload."""
    return {s["label"]: [s["xs"], s["ys"]] for s in payload["series"]}
