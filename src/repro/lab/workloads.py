"""The policy lab's workload zoo.

Each :class:`LabWorkload` bundles an MDF factory with the cluster shape
it should run on, so every experiment cell (policy × workload ×
cluster size) is reproducible from its name alone.

Zoo admission rule — the differential contract (``repro.lab.
differential``) demands that every workload's final outputs be
*order-insensitive*: whatever order a scheduler evaluates branches in,
the choose must keep the same set.  Exhaustive selections (``Min``,
``Max``, ``TopK``, ``Threshold``) with **distinct branch scores**
satisfy this; non-exhaustive first-k selections (``KThreshold``,
``KInterval``) are order-sensitive *by design* (Fig. 8 exploits exactly
that) and are therefore excluded from the zoo.  Every builder below
keeps branch scores distinct on purpose.

Zoo admission rule — a registered workload's MDF can be run again; its
operators write nothing a later run reads.  A service worker builds each
workload's MDF once and runs it for every job of that name
(``repro.service.worker``), so a re-run must give the trace, outputs and
operator fingerprints of a fresh build.  The lab still builds per cell,
because its cells are meant to be independent.

Workloads tagged ``"smoke"`` finish in well under a second each and form
the CI tier; ``"full"`` adds the paper-shaped jobs (time series,
synthetic nested grid) for local studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.cluster import Cluster
from ..cluster.costmodel import GB, MB
from ..core.builder import MDFBuilder
from ..core.evaluators import CallableEvaluator
from ..core.mdf import MDF
from ..core.selection import Max, Min, Threshold, TopK
from ..engine.job import EngineConfig, JobResult
from ..engine.runner import run_mdf


@dataclass
class LabWorkload:
    """One experiment subject: an MDF plus the cluster it runs on."""

    name: str
    description: str
    make_mdf: Callable[[], MDF]
    workers: int = 4
    mem_per_worker: int = 1 * GB
    tags: Tuple[str, ...] = ()
    #: engine knobs for the run; fresh per cell (configs hold hint state)
    make_config: Callable[[], EngineConfig] = EngineConfig

    def make_cluster(self, workers: Optional[int] = None) -> Cluster:
        """A fresh cluster for one cell (worker count overridable)."""
        return Cluster(
            num_workers=workers or self.workers,
            mem_per_worker=self.mem_per_worker,
        )

    def run(
        self,
        scheduler: str = "bas",
        memory: str = "amm",
        workers: Optional[int] = None,
        backend=None,
    ) -> Tuple[JobResult, Cluster]:
        """Execute one cell and return the result with its cluster.

        The cluster is returned alongside so callers can read the live
        metrics registry (``cluster.obs``) — the differential matrix
        replays the trace against it.  ``backend`` picks the execution
        backend (``"serial"``/``"mp"`` or an instance); the simulated
        result is byte-identical either way.  To watch the run, wrap the
        call in :func:`~repro.engine.runner.observing`.
        """
        cluster = self.make_cluster(workers)
        result = run_mdf(
            self.make_mdf(),
            cluster,
            scheduler=scheduler,
            memory=memory,
            config=self.make_config(),
            backend=backend,
        )
        return result, cluster


# ------------------------------------------------------------- MDF builders


def _filter_min_mdf(
    thresholds=(10, 100, 500), nominal: int = 64 * MB, data_n: int = 1000
) -> MDF:
    """Threshold-filter explore; keep the branch with the fewest rows.

    Branch scores are the surviving row counts — strictly increasing in
    the threshold, hence distinct."""
    b = MDFBuilder("lab-filter-min")
    src = b.read_data(list(range(data_n)), name="src", nominal_bytes=nominal)
    result = src.explore(
        {"threshold": list(thresholds)},
        lambda pipe, p: pipe.transform(
            lambda xs, t=p["threshold"]: [x for x in xs if x < t],
            name=f"filter-{p['threshold']}",
        ),
        name="explore-threshold",
    ).choose(CallableEvaluator(len, name="row-count"), Min(), name="choose-fewest")
    result.write(name="out")
    return b.build()


def _nested_max_mdf(
    outer=(2, 3), inner=(5, 7), nominal: int = 64 * MB, data_n: int = 400
) -> MDF:
    """Nested explore; products 10/14/15/21 keep every score distinct."""
    b = MDFBuilder("lab-nested-max")
    src = b.read_data(list(range(data_n)), name="src", nominal_bytes=nominal)
    score = CallableEvaluator(
        lambda xs: float(max(xs)) if xs else 0.0, name="max-value"
    )

    def inner_branch(pipe, p):
        return pipe.transform(
            lambda xs, m=p["m"]: [x * m for x in xs], name=f"mul-{p['_o']}-{p['m']}"
        )

    def outer_branch(pipe, p):
        first = pipe.transform(
            lambda xs, m=p["o"]: [x * m for x in xs], name=f"mul-{p['o']}"
        )
        return first.explore(
            {"m": list(inner), "_o": [p["o"]]},
            inner_branch,
            name=f"explore-inner-{p['o']}",
        ).choose(score, Max(), name=f"choose-inner-{p['o']}")

    result = src.explore({"o": list(outer)}, outer_branch, name="explore-outer").choose(
        score, Max(), name="choose-outer"
    )
    result.write(name="out")
    return b.build()


def _wide_topk_mdf(
    scales=(3, 1, 4, 9, 2, 6, 8, 5), k: int = 3, nominal: int = 32 * MB
) -> MDF:
    """One wide explore (8 branches), keep the top-``k`` by scaled sum.

    Distinct scale factors give distinct scores; the shuffled domain
    order ensures the winners are *not* a domain prefix, so a scheduler
    that reorders evaluation gets exercised against real reordering."""
    b = MDFBuilder("lab-wide-topk")
    src = b.read_data(list(range(1, 201)), name="src", nominal_bytes=nominal)
    score = CallableEvaluator(lambda xs: float(sum(xs)), name="sum")
    result = src.explore(
        {"s": list(scales)},
        lambda pipe, p: pipe.transform(
            lambda xs, s=p["s"]: [x * s for x in xs], name=f"scale-{p['s']}"
        ),
        name="explore-scale",
    ).choose(score, TopK(k), name="choose-top")
    result.write(name="out")
    return b.build()


def _threshold_keepers_mdf(
    cutoffs=(50, 150, 400, 800), nominal: int = 32 * MB, data_n: int = 1000
) -> MDF:
    """Exhaustive ``Threshold`` selection: every branch judged on its own.

    Per-branch independent keep/discard is order-insensitive regardless
    of score spacing — the multi-keeper counterpart to top-k."""
    b = MDFBuilder("lab-threshold")
    src = b.read_data(list(range(data_n)), name="src", nominal_bytes=nominal)
    ratio = CallableEvaluator(lambda xs: len(xs) / data_n, name="kept-ratio")
    result = src.explore(
        {"c": list(cutoffs)},
        lambda pipe, p: pipe.transform(
            lambda xs, c=p["c"]: [x for x in xs if x < c], name=f"cut-{p['c']}"
        ),
        name="explore-cutoff",
    ).choose(ratio, Threshold(0.25, above=True), name="choose-keepers")
    result.write(name="out")
    return b.build()


def _dl_grid_mdf() -> MDF:
    """Compute-heavy hyper-parameter grid: real SGD training per branch.

    The service's shared workload (any tenant may submit it).  Four
    distinct (rate, momentum) combinations give distinct validation
    accuracies (seeded training),
    and re-training a branch is far costlier than a modelled disk read —
    so *store-tier* hits pass the profitability gate, which the cheap
    filter workloads never do.  Pair with the materialised-choose config
    below so losing branches are written behind to the shared store."""
    from ..workloads.datagen import cifar_like
    from ..workloads.deeplearning import MLPTrainer
    from ..workloads.mdfs import deep_learning_mdf

    data = cifar_like(n_samples=600, features=64, seed=17)
    trainer = MLPTrainer(hidden=16, epochs=5, seed=3)
    return deep_learning_mdf(
        data,
        mode="hyper_only",
        trainer=trainer,
        rates=(0.005, 0.05),
        momenta=(0.0, 0.9),
        nominal_bytes=1 * GB,
    )


def _dl_grid_config() -> EngineConfig:
    # materialised choose (the fig05 pattern): losing branch results live
    # long enough to be written behind to the store tier, so a later
    # tenant's run reuses every branch, not just the winner's
    return EngineConfig(pruning=False, incremental_choose=False)


def _time_series_mdf() -> MDF:
    """The paper's time-series job (Fig. 22) at lab scale."""
    from ..workloads.datagen import oil_well_trace
    from ..workloads.mdfs import time_series_mdf
    from ..workloads.timeseries import TimeSeriesGrid

    trace = oil_well_trace(n=2_000, seed=11)
    grid = TimeSeriesGrid(windows=(3, 5), thresholds=(1.0, 2.0))
    return time_series_mdf(trace, grid, nominal_bytes=48 * MB)


def _synthetic_grid_mdf() -> MDF:
    """The synthetic nested-explore job (Fig. 23) at lab scale."""
    from ..workloads.datagen import string_int_pairs
    from ..workloads.mdfs import synthetic_mdf

    return synthetic_mdf(string_int_pairs(n=200, seed=23), b1=2, b2=2, nominal_bytes=32 * MB)


# --------------------------------------------------------------------- zoo

#: name -> workload; iteration order is registration order
WORKLOADS: Dict[str, LabWorkload] = {}


def register_workload(workload: LabWorkload) -> None:
    """Admit a workload to the zoo (names are unique)."""
    if workload.name in WORKLOADS:
        raise ValueError(f"workload {workload.name!r} already registered")
    WORKLOADS[workload.name] = workload


def available_workloads(tag: Optional[str] = None) -> List[str]:
    """Zoo workload names, optionally restricted to one tag."""
    return [
        name
        for name, w in WORKLOADS.items()
        if tag is None or tag in w.tags
    ]


def get_workload(name: str) -> LabWorkload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (registered: {sorted(WORKLOADS)})"
        ) from None


register_workload(
    LabWorkload(
        name="filter_min",
        description="3-branch threshold filter, keep fewest rows (Min)",
        make_mdf=_filter_min_mdf,
        workers=4,
        tags=("smoke", "full"),
    )
)
register_workload(
    LabWorkload(
        name="nested_topk",
        description="2x2 nested explore, keep max value per scope (Max)",
        make_mdf=_nested_max_mdf,
        workers=4,
        tags=("smoke", "full"),
    )
)
register_workload(
    LabWorkload(
        name="starved_explore",
        description="filter_min under memory starvation (2 workers, 48 MB)",
        make_mdf=lambda: _filter_min_mdf(nominal=64 * MB),
        workers=2,
        mem_per_worker=48 * MB,
        tags=("smoke", "full"),
    )
)
register_workload(
    LabWorkload(
        name="wide_topk",
        description="8-branch wide explore, keep top-3 by sum (TopK)",
        make_mdf=_wide_topk_mdf,
        workers=4,
        tags=("full",),
    )
)
register_workload(
    LabWorkload(
        name="threshold_keepers",
        description="4-branch explore with per-branch Threshold keeps",
        make_mdf=_threshold_keepers_mdf,
        workers=4,
        tags=("full",),
    )
)
register_workload(
    LabWorkload(
        name="time_series",
        description="paper time-series job (Fig. 22) at lab scale",
        make_mdf=_time_series_mdf,
        workers=4,
        mem_per_worker=256 * MB,
        tags=("full",),
    )
)
register_workload(
    LabWorkload(
        name="synthetic_grid",
        description="paper synthetic nested grid (Fig. 23) at lab scale",
        make_mdf=_synthetic_grid_mdf,
        workers=4,
        mem_per_worker=256 * MB,
        tags=("full",),
    )
)
register_workload(
    LabWorkload(
        name="dl_grid",
        description="compute-heavy DL hyper grid (real SGD), materialised choose",
        make_mdf=_dl_grid_mdf,
        workers=4,
        mem_per_worker=4 * GB,
        tags=("service",),
        make_config=_dl_grid_config,
    )
)
# Per-tenant private workloads, the zero-overlap side of a job mix: same
# shape as filter_min but distinct thresholds *and* data sizes, so no two
# tenants' private fingerprints collide (zero cross-tenant overlap).
for _i, (_thresholds, _data_n) in enumerate(
    [
        ((11, 101, 501), 600),
        ((12, 102, 502), 700),
        ((13, 103, 503), 800),
        ((14, 104, 504), 900),
    ]
):
    register_workload(
        LabWorkload(
            name=f"svc_private_t{_i}",
            description=(
                f"tenant-{_i} private filter grid "
                f"(thresholds {_thresholds}, n={_data_n})"
            ),
            make_mdf=lambda t=_thresholds, n=_data_n: _filter_min_mdf(
                thresholds=t, data_n=n
            ),
            workers=4,
            tags=("service",),
        )
    )
