"""Ready-made MDFs for the paper's four evaluation workflows (App. C).

Each workload exposes two factories:

* ``*_mdf(...)`` — the meta-dataflow with its explore/choose structure
  (Figs. 3b/3c, 21, 22, 23 of the paper), and
* ``*_job(params, ...)`` — one *concrete* dataflow for a single parameter
  combination, which is what the sequential / k-parallel / Spark baselines
  submit repeatedly.

All sources take a ``nominal_bytes`` argument so benchmarks can dial in
paper-scale memory pressure independently of the in-process payload size.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.fingerprint import FingerprintError
from ..core.builder import MDFBuilder, Pipe
from ..core.evaluators import CallableEvaluator, RatioEvaluator
from ..core.mdf import MDF
from ..core.operators import Source
from ..core.selection import (
    KThreshold,
    Max,
    Min,
    SelectionFunction,
    Threshold,
    TopK,
)
from . import deeplearning as dl
from . import synthetic as syn
from .datagen import LabelledImages
from .kde import kde_fit_payload, loglik_of_payload, mise_of_payload, normal_pdf
from .outliers import sigma_filter
from .preprocess import preprocessor
from .timeseries import TimeSeriesGrid, detect_sequences, mark_events, mask_series

MB = 1024**2


# ----------------------------------------------------------------- profiling


def kde_mdf(
    values: np.ndarray,
    preprocess_methods: Sequence[str] = ("normalize", "standardize"),
    kernels: Sequence[str] = ("gaussian", "top-hat", "biweight", "triweight"),
    bandwidths: Sequence[float] = (0.1, 0.2, 0.3),
    nominal_bytes: int = 512 * MB,
    holdout_fraction: float = 0.01,
    seed: int = 5,
) -> MDF:
    """The data-profiling MDF (§6.1 job 3).

    Outer explore over the pre-processing method; inner explore over kernel
    × bandwidth.  The inner choose keeps the estimate with the best
    hold-out log-likelihood (1% of the data, as in the paper); the outer
    choose compares the two pre-processing winners the same way.
    """
    rng = np.random.default_rng(seed)
    n_holdout = max(8, int(len(values) * holdout_fraction))
    holdout = rng.choice(values, size=n_holdout, replace=False)
    loglik = CallableEvaluator(loglik_of_payload(holdout), name="holdout-loglik")

    b = MDFBuilder("kde-profiling")
    src = b.read(Source.from_data(values, name="read-sensor", nominal_bytes=nominal_bytes))

    def kernel_branch(pipe: Pipe, p: Dict[str, Any]) -> Pipe:
        return pipe.transform(
            kde_fit_payload(p["kernel"], p["bandwidth"]),
            name=f"kde-{p['_method']}-{p['kernel']}-{p['bandwidth']}",
            cost_factor=2.0,
            selectivity=0.002,
        )

    def preprocess_branch(pipe: Pipe, p: Dict[str, Any]) -> Pipe:
        prepped = pipe.transform(
            preprocessor(p["method"]), name=f"prep-{p['method']}", cost_factor=2.0
        )
        return prepped.explore(
            {
                "kernel": list(kernels),
                "bandwidth": list(bandwidths),
                "_method": [p["method"]],
            },
            kernel_branch,
            name=f"explore-kde-{p['method']}",
        ).choose(loglik, Max(), name=f"choose-kde-{p['method']}")

    result = src.explore(
        {"method": list(preprocess_methods)},
        preprocess_branch,
        name="explore-prep",
    ).choose(loglik, Max(), name="choose-prep")
    result.write(name="write-results")
    return b.build()


def kde_job(
    values: np.ndarray,
    params: Dict[str, Any],
    nominal_bytes: int = 512 * MB,
) -> MDF:
    """One concrete profiling job: preprocess → KDE fit → sink."""
    b = MDFBuilder(f"kde-job-{params['method']}-{params['kernel']}-{params['bandwidth']}")
    src = b.read(Source.from_data(values, name="read-sensor", nominal_bytes=nominal_bytes))
    (
        src.transform(preprocessor(params["method"]), name="prep", cost_factor=2.0)
        .transform(
            kde_fit_payload(params["kernel"], params["bandwidth"]),
            name="kde",
            cost_factor=2.0,
            selectivity=0.002,
        )
        .write(name="write-results")
    )
    return b.build()


def kde_combinations(
    preprocess_methods: Sequence[str] = ("normalize", "standardize"),
    kernels: Sequence[str] = ("gaussian", "top-hat", "biweight", "triweight"),
    bandwidths: Sequence[float] = (0.1, 0.2, 0.3),
) -> List[Dict[str, Any]]:
    """All parameter combinations the exploratory workflow covers."""
    return [
        {"method": m, "kernel": k, "bandwidth": h}
        for m in preprocess_methods
        for k in kernels
        for h in bandwidths
    ]


def kde_scoped_mdf(
    values: np.ndarray,
    outlier_thresholds: Sequence[float] = (1.5, 2.0, 2.5, 3.0),
    kernels: Sequence[str] = ("gaussian", "top-hat"),
    bandwidths: Sequence[float] = (0.2,),
    nominal_bytes: int = 512 * MB,
    min_surviving_ratio: float = 0.8,
    seed: int = 5,
) -> MDF:
    """The scoped KDE MDF of Fig. 3c (Example 3.5).

    An early choose closes the outlier-exploration scope: it keeps the
    first branch whose filter removed less than ``1 − min_surviving_ratio``
    of the data, pruning the remaining thresholds (the surviving-fraction
    evaluator is monotone in the threshold, and first-k selection is
    non-exhaustive — the strongest Table 1 row).
    """
    mu, sigma = float(np.mean(values)), float(np.std(values))
    mise = CallableEvaluator(mise_of_payload(normal_pdf(mu, sigma)), name="mise")
    ratio = RatioEvaluator(len(values), monotone=True, name="surviving-ratio")

    b = MDFBuilder("kde-scoped")
    src = b.read(Source.from_data(values, name="read-sample", nominal_bytes=nominal_bytes))
    filtered = src.explore(
        {"t": list(outlier_thresholds)},
        lambda pipe, p: pipe.transform(
            sigma_filter(p["t"]), name=f"outlier-{p['t']}", selectivity=0.9
        ),
        name="explore-outlier",
    ).choose(ratio, KThreshold(1, min_surviving_ratio), name="choose-outlier")
    estimated = filtered.explore(
        {"kernel": list(kernels), "bandwidth": list(bandwidths)},
        lambda pipe, p: pipe.transform(
            kde_fit_payload(p["kernel"], p["bandwidth"]),
            name=f"kde-{p['kernel']}-{p['bandwidth']}",
            cost_factor=2.0,
            selectivity=0.002,
        ),
        name="explore-kernel",
    ).choose(mise, Min(), name="choose-kernel")
    estimated.write(name="write-results")
    return b.build()


# --------------------------------------------------------------- time series


def time_series_mdf(
    trace: np.ndarray,
    grid: TimeSeriesGrid,
    selection: Optional[SelectionFunction] = None,
    evaluator: Optional[RatioEvaluator] = None,
    nominal_bytes: int = 256 * MB,
) -> MDF:
    """The time-series analysis MDF (§6.1 job 2, App. C Fig. 22).

    Explores masking windows × thresholds; the choose keeps branches whose
    surviving-point ratio passes the evaluator/selection given (default:
    ``Threshold(0.8)``), then marking and detection run on the kept data.
    """
    selection = selection or Threshold(0.8, above=True)
    evaluator = evaluator or RatioEvaluator(len(trace), name="surviving-ratio")

    b = MDFBuilder("time-series")
    src = b.read(Source.from_data(trace, name="read-trace", nominal_bytes=nominal_bytes))
    masked = src.explore(
        {"w": list(grid.windows), "t": list(grid.thresholds)},
        lambda pipe, p: pipe.transform(
            mask_series(p["w"], p["t"]),
            name=f"mask-w{p['w']}-t{p['t']:.4f}",
            selectivity=0.7,
            cost_factor=0.3,
        ),
        name="explore-mask",
    ).choose(evaluator, selection, name="choose-mask")
    (
        masked.transform(
            mark_events(grid.mark_window, grid.mark_magnitude),
            name="mark-events",
            selectivity=0.05,
            cost_factor=2.0,
        )
        .transform(
            detect_sequences(grid.duration),
            name="detect-seq",
            selectivity=0.2,
            cost_factor=1.0,
        )
        .write(name="write-results")
    )
    return b.build()


def time_series_job(
    trace: np.ndarray,
    params: Dict[str, Any],
    grid: TimeSeriesGrid,
    nominal_bytes: int = 256 * MB,
) -> MDF:
    """One concrete time-series job: mask → mark → detect → sink."""
    b = MDFBuilder(f"ts-job-w{params['w']}-t{params['t']:.4f}")
    src = b.read(Source.from_data(trace, name="read-trace", nominal_bytes=nominal_bytes))
    (
        src.transform(
            mask_series(params["w"], params["t"]),
            name="mask",
            selectivity=0.7,
            cost_factor=0.3,
        )
        .transform(
            mark_events(grid.mark_window, grid.mark_magnitude),
            name="mark-events",
            selectivity=0.05,
            cost_factor=2.0,
        )
        .transform(
            detect_sequences(grid.duration),
            name="detect-seq",
            selectivity=0.2,
            cost_factor=1.0,
        )
        .write(name="write-results")
    )
    return b.build()


def time_series_combinations(grid: TimeSeriesGrid) -> List[Dict[str, Any]]:
    return [{"w": w, "t": t} for w in grid.windows for t in grid.thresholds]


def time_series_full_mdf(
    trace: np.ndarray,
    grid: TimeSeriesGrid,
    mark_windows: Sequence[int] = (3, 5, 8),
    mark_magnitudes: Sequence[float] = (1.0, 2.0, 4.0),
    durations: Sequence[float] = (1_000.0, 2_000.0, 5_000.0),
    nominal_bytes: int = 256 * MB,
    mask_selection: Optional[SelectionFunction] = None,
    top_detections: int = 1,
) -> MDF:
    """Time-series job exploring *all five* §6.1 explorables.

    The paper's sweep covers masking windows ``W`` and thresholds ``T``,
    marking windows ``L`` and magnitudes ``M``, and event durations ``D``.
    This variant chains three scopes:

    1. explore W × T masks, keep maskings passing the surviving-ratio
       threshold (the Fig. 22 scope);
    2. explore L × M markings over the kept maskings, keep the marking
       with the most events (enough signal to analyse);
    3. explore D detections, keep the top-``top_detections`` by detected
       sequence count.

    Each later scope reuses the previous scope's surviving dataset once —
    the reuse structure the MDF model exists to exploit (R2).
    """
    mask_selection = mask_selection or Threshold(0.8, above=True)
    ratio = RatioEvaluator(len(trace), name="surviving-ratio")
    count_rows = CallableEvaluator(
        lambda rows: float(np.asarray(rows).shape[0]) if len(rows) else 0.0,
        name="row-count",
    )

    b = MDFBuilder("time-series-full")
    src = b.read(Source.from_data(trace, name="read-trace", nominal_bytes=nominal_bytes))
    masked = src.explore(
        {"w": list(grid.windows), "t": list(grid.thresholds)},
        lambda pipe, p: pipe.transform(
            mask_series(p["w"], p["t"]),
            name=f"mask-w{p['w']}-t{p['t']:.4f}",
            selectivity=0.7,
            cost_factor=0.3,
        ),
        name="explore-mask",
    ).choose(ratio, mask_selection, name="choose-mask")
    marked = masked.explore(
        {"l": list(mark_windows), "m": list(mark_magnitudes)},
        lambda pipe, p: pipe.transform(
            mark_events(p["l"], p["m"]),
            name=f"mark-l{p['l']}-m{p['m']}",
            selectivity=0.05,
            cost_factor=2.0,
        ),
        name="explore-mark",
    ).choose(count_rows, Max(), name="choose-mark")
    detected = marked.explore(
        {"d": list(durations)},
        lambda pipe, p: pipe.transform(
            detect_sequences(p["d"]),
            name=f"detect-d{p['d']:.0f}",
            selectivity=0.2,
            cost_factor=1.0,
        ),
        name="explore-detect",
    ).choose(count_rows, TopK(top_detections), name="choose-detect")
    detected.write(name="write-results")
    return b.build()


# ------------------------------------------------------------- deep learning


def _dl_evaluator() -> CallableEvaluator:
    return CallableEvaluator(dl.accuracy_of_payload, name="val-accuracy")


def _train_cost(nominal_bytes: int, epochs: int) -> float:
    """Compute cost of one training branch (epochs × full-data passes).

    Training cost is dominated by the data volume streamed through the
    model, independent of the (tiny) dataset a branch receives as input,
    so it is charged as a fixed cost per training operator."""
    return float(nominal_bytes) * epochs * 3.0


class _HostShared:
    """A value operators hand each other on the host, outside the dataflow
    (``early_choose``: the first stage leaves the preprocessed images, the
    second retrains on them).  What such an operator returns depends on what
    ran before it, so whoever captures the cell is unfingerprintable and the
    result cache never serves or stores it."""

    def __init__(self, value: Any):
        self.value = value

    def fingerprint_token(self):
        raise FingerprintError("reads or writes a run-time side channel")


def deep_learning_mdf(
    data: LabelledImages,
    mode: str = "exhaustive",
    trainer: Optional[dl.MLPTrainer] = None,
    inits: Sequence[str] = tuple(dl.INIT_STRATEGIES),
    rates: Sequence[float] = dl.LEARNING_RATES,
    momenta: Sequence[float] = dl.MOMENTA,
    nominal_bytes: int = 512 * MB,
    holdout_fraction: float = 0.2,
    default_rate: float = 0.005,
    default_momentum: float = 0.5,
) -> MDF:
    """The deep-learning MDF (§6.1 job 1, App. C Fig. 21).

    Modes mirror the Fig. 5 bar groups:

    * ``"weights_only"`` — explore the |W| initialisation strategies;
    * ``"hyper_only"`` — explore |R × M| learning-rate/momentum pairs;
    * ``"exhaustive"`` — explore |W × R × M| combinations at once;
    * ``"early_choose"`` — explore |W| first, keep the best by validation
      accuracy, then explore |R × M| starting from that winner
      (|W| + |R × M| paths instead of |W × R × M|).
    """
    trainer = trainer or dl.MLPTrainer()
    train_set, val_set = data.split(holdout_fraction, seed=1)
    evaluator = _dl_evaluator()
    cost = _train_cost(nominal_bytes, trainer.epochs)

    b = MDFBuilder(f"deep-learning-{mode}")
    src = b.read(Source.from_data(train_set, name="read-cifar", nominal_bytes=nominal_bytes))
    prepped = src.transform(
        dl.preprocess_images, name="preprocess", cost_factor=4.0
    )

    def train_branch(pipe: Pipe, p: Dict[str, Any]) -> Pipe:
        # "from-winner": early-choose second stage, init comes from the
        # winning model of the first explore at run time
        init = p.get("init", "from-winner")
        rate = p.get("rate", default_rate)
        momentum = p.get("momentum", default_momentum)
        return pipe.aggregate(
            _training_fn(init, rate, momentum),
            name=f"train-{init}-r{rate}-m{momentum}",
            fixed_cost=cost,
            cost_factor=0.0,
            selectivity=0.0005,
        )

    def _training_fn(init, rate, momentum):
        if mode != "early_choose":
            return lambda payload: [trainer.train(payload, val_set, init, rate, momentum)]

        def train(payload):
            if isinstance(payload, LabelledImages):
                shared_prepped.value, chosen = payload, init
            else:
                # second stage: the input is the winning model; reuse its
                # init and retrain on the (host-shared) data
                chosen = [m for m in payload if isinstance(m, dl.TrainedModel)][0].init
            return [trainer.train(shared_prepped.value, val_set, chosen, rate, momentum)]

        return train

    shared_prepped = _HostShared(train_set)

    if mode == "weights_only":
        chosen = prepped.explore(
            {"init": list(inits)}, train_branch, name="explore-weights"
        ).choose(evaluator, TopK(1), name="choose-weights")
    elif mode == "hyper_only":
        chosen = prepped.explore(
            {"rate": list(rates), "momentum": list(momenta), "init": [inits[0]]},
            train_branch,
            name="explore-hyper",
        ).choose(evaluator, TopK(1), name="choose-hyper")
    elif mode == "exhaustive":
        chosen = prepped.explore(
            {"init": list(inits), "rate": list(rates), "momentum": list(momenta)},
            train_branch,
            name="explore-all",
        ).choose(evaluator, TopK(1), name="choose-all")
    elif mode == "early_choose":
        winners = prepped.explore(
            {"init": list(inits)}, train_branch, name="explore-weights"
        ).choose(evaluator, TopK(1), name="choose-weights")
        chosen = winners.explore(
            {"rate": list(rates), "momentum": list(momenta)},
            train_branch,
            name="explore-hyper",
        ).choose(evaluator, TopK(1), name="choose-hyper")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    chosen.write(name="write-model")
    return b.build()


def deep_learning_job(
    data: LabelledImages,
    params: Dict[str, Any],
    trainer: Optional[dl.MLPTrainer] = None,
    nominal_bytes: int = 512 * MB,
    holdout_fraction: float = 0.2,
) -> MDF:
    """One concrete training job: preprocess → train(one config) → sink."""
    trainer = trainer or dl.MLPTrainer()
    train_set, val_set = data.split(holdout_fraction, seed=1)
    cost = _train_cost(nominal_bytes, trainer.epochs)

    def train(payload):
        model = trainer.train(
            payload, val_set, params["init"], params["rate"], params["momentum"]
        )
        return [model]

    b = MDFBuilder("dl-job")
    src = b.read(Source.from_data(train_set, name="read-cifar", nominal_bytes=nominal_bytes))
    (
        src.transform(dl.preprocess_images, name="preprocess", cost_factor=4.0)
        .aggregate(
            train,
            name="train",
            fixed_cost=cost,
            cost_factor=0.0,
            selectivity=0.0005,
        )
        .write(name="write-model")
    )
    return b.build()


def deep_learning_combinations(
    mode: str,
    inits: Sequence[str] = tuple(dl.INIT_STRATEGIES),
    rates: Sequence[float] = dl.LEARNING_RATES,
    momenta: Sequence[float] = dl.MOMENTA,
    default_rate: float = 0.005,
    default_momentum: float = 0.5,
) -> List[Dict[str, Any]]:
    """Parameter combinations a baseline must submit as separate jobs.

    For ``early_choose`` the baseline cannot exploit the pattern — it still
    has to explore the full cross product, which is exactly the gap Fig. 5
    shows."""
    if mode == "weights_only":
        return [
            {"init": i, "rate": default_rate, "momentum": default_momentum}
            for i in inits
        ]
    if mode == "hyper_only":
        return [
            {"init": inits[0], "rate": r, "momentum": m} for r in rates for m in momenta
        ]
    if mode in ("exhaustive", "early_choose"):
        return [
            {"init": i, "rate": r, "momentum": m}
            for i in inits
            for r in rates
            for m in momenta
        ]
    raise ValueError(f"unknown mode {mode!r}")


# ------------------------------------------------------------------ synthetic


def synthetic_mdf(
    pairs: List[Tuple[str, int]],
    b1: int = 4,
    b2: int = 4,
    work: int = 1,
    nominal_bytes: int = 256 * MB,
    op_selectivity: float = 0.85,
) -> MDF:
    """The synthetic nested-explore MDF (§6.1 job 4, App. C Fig. 23)."""
    outer = syn.multipliers(b1)
    inner = syn.multipliers(b2)
    evaluator = CallableEvaluator(syn.int_value, name="int-value")

    b = MDFBuilder(f"synthetic-{b1}x{b2}")
    src = b.read(Source.from_data(pairs, name="read-pairs", nominal_bytes=nominal_bytes))

    def inner_branch(pipe: Pipe, p: Dict[str, Any]) -> Pipe:
        return pipe.transform(
            syn.math_op(p["w2"], work), name=f"op-w2-{p['w2']}-{p['_outer']}",
            cost_factor=float(work),
            selectivity=op_selectivity,
        )

    def outer_branch(pipe: Pipe, p: Dict[str, Any]) -> Pipe:
        first = pipe.transform(
            syn.math_op(p["w1"], work), name=f"op-w1-{p['w1']}",
            cost_factor=float(work),
            selectivity=op_selectivity,
        )
        return first.explore(
            {"w2": list(inner), "_outer": [p["w1"]]},
            inner_branch,
            name=f"explore-inner-{p['w1']}",
        ).choose(evaluator, Max(), name=f"choose-inner-{p['w1']}")

    result = src.explore(
        {"w1": list(outer)}, outer_branch, name="explore-outer"
    ).choose(evaluator, Max(), name="choose-outer")
    result.write(name="write-results")
    return b.build()


def synthetic_job(
    pairs: List[Tuple[str, int]],
    params: Dict[str, Any],
    work: int = 1,
    nominal_bytes: int = 256 * MB,
    op_selectivity: float = 0.85,
) -> MDF:
    """One concrete synthetic job: op(w1) → op(w2) → sink."""
    b = MDFBuilder(f"syn-job-{params['w1']}-{params['w2']}")
    src = b.read(Source.from_data(pairs, name="read-pairs", nominal_bytes=nominal_bytes))
    (
        src.transform(
            syn.math_op(params["w1"], work),
            name="op-w1",
            cost_factor=float(work),
            selectivity=op_selectivity,
        )
        .transform(
            syn.math_op(params["w2"], work),
            name="op-w2",
            cost_factor=float(work),
            selectivity=op_selectivity,
        )
        .write(name="write-results")
    )
    return b.build()


def synthetic_combinations(b1: int = 4, b2: int = 4) -> List[Dict[str, Any]]:
    return [
        {"w1": w1, "w2": w2}
        for w1 in syn.multipliers(b1)
        for w2 in syn.multipliers(b2)
    ]
