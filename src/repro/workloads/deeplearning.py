"""Deep-learning job: a numpy multi-layer network (§6.1, App. C Fig. 21).

The exploratory workflow trains an image classifier and explores

* eight weight-initialisation strategies ``W`` (Gaussian / uniform
  families, matching the paper's "eight weight initialisation strategies
  based on either Gaussian or uniform distributions"),
* four learning rates ``R = {0.0001, 0.001, 0.005, 0.01}``, and
* four momentum values ``M = {0.25, 0.5, 0.75, 0.9}``,

for ``|W × R × M| = 128`` exhaustive paths, or ``|W| + |R × M| = 24``
paths with the early-choose pattern (explore inits first, keep the best,
then explore hyper-parameters).

The network is a one-hidden-layer MLP with ReLU and softmax trained by
mini-batch SGD with momentum — small enough to train for real inside the
simulation, expressive enough that inits and hyper-parameters genuinely
move validation accuracy (so choose selects meaningfully).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .datagen import LabelledImages

#: the paper's hyper-parameter domains
LEARNING_RATES: Tuple[float, ...] = (0.0001, 0.001, 0.005, 0.01)
MOMENTA: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.9)

#: eight weight-initialisation strategies (name -> (family, scale))
INIT_STRATEGIES: Dict[str, Tuple[str, float]] = {
    "gaussian-0.01": ("gaussian", 0.01),
    "gaussian-0.05": ("gaussian", 0.05),
    "gaussian-0.1": ("gaussian", 0.1),
    "gaussian-0.5": ("gaussian", 0.5),
    "uniform-0.05": ("uniform", 0.05),
    "uniform-0.1": ("uniform", 0.1),
    "uniform-0.5": ("uniform", 0.5),
    "uniform-1.0": ("uniform", 1.0),
}


def init_names() -> List[str]:
    return list(INIT_STRATEGIES)


def _init_matrix(shape: Tuple[int, int], strategy: str, rng: np.random.Generator) -> np.ndarray:
    family, scale = INIT_STRATEGIES[strategy]
    if family == "gaussian":
        return rng.normal(0.0, scale, size=shape)
    return rng.uniform(-scale, scale, size=shape)


def _layer_views(flat: np.ndarray, d: int, hidden: int, classes: int) -> Tuple[np.ndarray, ...]:
    """``(w1, b1, w2, b2)`` as views of one flat buffer of
    ``(d + 1) * hidden + (hidden + 1) * classes`` floats."""
    a = d * hidden
    b = a + hidden
    c = b + hidden * classes
    return flat[:a].reshape(d, hidden), flat[a:b], flat[b:c].reshape(hidden, classes), flat[c:]


def batch_gradients(
    xb: np.ndarray,
    yb: np.ndarray,
    rows: np.ndarray,
    layers: Tuple[np.ndarray, ...],
    grads: Tuple[np.ndarray, ...],
) -> None:
    """One SGD step's mean cross-entropy gradients, written into ``grads``.

    The forward pass (ReLU hidden layer, softmax) and the backward pass
    of :meth:`MLPTrainer.train`, in place: ``xb`` is the float64 batch,
    ``rows`` is ``np.arange(len(yb))``, ``layers`` and ``grads`` are
    ``(w1, b1, w2, b2)`` and arrays of the same shapes.  Reductions call
    the ufuncs directly, skipping the ``ndarray.max/sum`` wrappers.
    """
    w1, b1, w2, b2 = layers
    g_w1, g_b1, g_w2, g_b2 = grads
    # forward
    hid = xb @ w1
    hid += b1
    np.maximum(hid, 0.0, out=hid)
    probs = hid @ w2
    probs += b2
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    # backward (cross-entropy); probs becomes the logits' gradient
    probs[rows, yb] -= 1.0
    probs /= len(yb)
    np.matmul(hid.T, probs, out=g_w2)
    np.add.reduce(probs, axis=0, out=g_b2)
    grad_hid = probs @ w2.T
    # ReLU's gradient: hid <= 0 exactly where the pre-activation was
    np.copyto(grad_hid, 0.0, where=hid <= 0.0)
    np.matmul(xb.T, grad_hid, out=g_w1)
    np.add.reduce(grad_hid, axis=0, out=g_b1)


@dataclass
class TrainedModel:
    """A trained MLP plus its validation accuracy (the branch payload)."""

    weights1: np.ndarray
    bias1: np.ndarray
    weights2: np.ndarray
    bias2: np.ndarray
    accuracy: float
    init: str
    learning_rate: float
    momentum: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(x @ self.weights1 + self.bias1, 0.0)
        logits = hidden @ self.weights2 + self.bias2
        return logits.argmax(axis=1)


class MLPTrainer:
    """One-hidden-layer softmax classifier trained with SGD + momentum."""

    def __init__(
        self,
        hidden: int = 32,
        num_classes: int = 10,
        epochs: int = 1,
        batch_size: int = 64,
        seed: int = 3,
    ):
        self.hidden = hidden
        self.num_classes = num_classes
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed

    def train(
        self,
        train: LabelledImages,
        val: LabelledImages,
        init: str,
        learning_rate: float,
        momentum: float,
    ) -> TrainedModel:
        """Train for ``epochs`` epochs and measure validation accuracy.

        Mirrors the paper's protocol: "after an epoch of training, the
        classification accuracy is measured using validation images".
        """
        rng = np.random.default_rng(self.seed)
        d = train.x.shape[1]
        shape = (d, self.hidden, self.num_classes)
        x = train.x / 255.0
        # one flat buffer each for the parameters, their velocity and their
        # gradients, with every layer a view: the momentum step is four
        # elementwise ops over all parameters, bit for bit the per-array form
        size = (d + 1) * self.hidden + (self.hidden + 1) * self.num_classes
        params, velocity, grads = np.zeros(size), np.zeros(size), np.empty(size)
        layers = w1, b1, w2, b2 = _layer_views(params, *shape)
        layer_grads = _layer_views(grads, *shape)
        w1[...] = _init_matrix((d, self.hidden), init, rng)
        w2[...] = _init_matrix((self.hidden, self.num_classes), init, rng)
        y = train.y
        rows = np.arange(self.batch_size)
        n = len(train)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                # one cast per batch, not one per matmul that reads it
                xb = x[batch].astype(np.float64)
                batch_gradients(xb, y[batch], rows[: len(batch)], layers, layer_grads)
                # SGD with momentum: v = momentum * v - lr * g; p += v.  The
                # next step rewrites every gradient, so g is scaled in place
                velocity *= momentum
                grads *= learning_rate
                velocity -= grads
                params += velocity
        # copies, not views of params: each field owns its bytes and pickles alone
        model = TrainedModel(
            w1.copy(), b1.copy(), w2.copy(), b2.copy(), 0.0, init, learning_rate, momentum
        )
        model.accuracy = float(
            np.mean(model.predict(val.x / 255.0) == val.y)
        )
        return model


def accuracy_of_payload(payload) -> float:
    """Evaluator function: validation accuracy of a branch's model."""
    models = [m for m in payload if isinstance(m, TrainedModel)]
    if not models:
        return 0.0
    return float(np.mean([m.accuracy for m in models]))


def preprocess_images(payload):
    """Pre-processing operator: per-partition pixel standardisation.

    Payload: one :class:`LabelledImages` partition → a standardised copy
    (rescaled back into pixel range).  This is the expensive shared step
    the MDF executes once and every explored path reuses.
    """
    data = payload[0] if isinstance(payload, list) else payload
    x = data.x.astype(np.float32)
    mean = x.mean(axis=0, keepdims=True)
    std = x.std(axis=0, keepdims=True) + 1e-6
    return LabelledImages(((x - mean) / std) * 64.0 + 128.0, data.y)
