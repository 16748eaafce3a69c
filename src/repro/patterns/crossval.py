"""Cross validation as a meta-dataflow (§3.2).

The paper: "an explore operator splits the input data, a trainer trains
the ML model, and a choose operator selects the highest quality result.
The trainer and choose operators execute multiple rounds of validation."

Here the explore's parameter grid is the *fold index*: each branch trains
on k−1 folds and validates on the held-out fold.  The choose's evaluator
is the fold's validation score, and ``TopK(1)`` picks the best fold's
model (the paper's "highest quality result").
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.builder import MDFBuilder, Pipe
from ..core.evaluators import CallableEvaluator
from ..core.mdf import MDF
from ..core.operators import Source
from ..core.selection import TopK

TrainFn = Callable[[Any, Any], Any]  # (train_payload, val_payload) -> model
ScoreFn = Callable[[Any], float]  # model -> validation score


def fold_splits(n_items: int, k: int) -> List[Tuple[List[int], List[int]]]:
    """Contiguous k-fold index splits: ``[(train_idx, val_idx), ...]``."""
    if k < 2:
        raise ValueError("cross validation needs k >= 2 folds")
    if n_items < k:
        raise ValueError("need at least one item per fold")
    base, extra = divmod(n_items, k)
    folds: List[List[int]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(list(range(start, start + size)))
        start += size
    splits = []
    for i in range(k):
        val = folds[i]
        train = [idx for j, fold in enumerate(folds) if j != i for idx in fold]
        splits.append((train, val))
    return splits


def cross_validation_mdf(
    items: Sequence[Any],
    train_fn: TrainFn,
    score_fn: ScoreFn,
    k: int = 5,
    nominal_bytes: Optional[int] = None,
) -> MDF:
    """Build a k-fold cross-validation MDF over ``items``.

    Each branch trains via ``train_fn(train_items, val_items)`` and is
    scored by ``score_fn(model)``; the choose keeps the single best
    fold's model.  The returned MDF's sink output is a one-element
    list holding the selected model.
    """
    splits = fold_splits(len(items), k)
    items = list(items)

    builder = MDFBuilder("cross-validation")
    src = builder.read(
        Source.from_data(items, name="read-folds", nominal_bytes=nominal_bytes)
    )

    def fold_branch(pipe: Pipe, p) -> Pipe:
        fold = p["fold"]
        train_idx, val_idx = splits[fold]

        def train(payload, train_idx=train_idx, val_idx=val_idx):
            # each partition holds a slice of the items; training uses the
            # global indices, so gather via an aggregate-style operator
            train_items = [items[i] for i in train_idx]
            val_items = [items[i] for i in val_idx]
            return [train_fn(train_items, val_items)]

        return pipe.aggregate(train, name=f"train-fold-{fold}", selectivity=0.01)

    result = src.explore(
        {"fold": list(range(k))}, fold_branch, name="explore-folds"
    ).choose(
        CallableEvaluator(
            lambda payload: float(score_fn(payload[0])) if payload else float("-inf"),
            name="fold-score",
        ),
        TopK(1),
        name="choose-fold",
    )
    result.write(name="model")
    return builder.build()
