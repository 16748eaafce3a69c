"""Numerical validation of the MLP's backpropagation.

The deep-learning workload is only a credible substrate if its gradients
are right; this test checks the gradient kernel ``MLPTrainer.train`` runs
at every step (``batch_gradients``) against central finite differences
on the cross-entropy loss.
"""

import numpy as np
import pytest

from repro.workloads.deeplearning import batch_gradients


def forward_loss(x, y, w1, b1, w2, b2):
    pre = x @ w1 + b1
    hid = np.maximum(pre, 0.0)
    logits = hid @ w2 + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return -np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300))


def analytic_grads(x, y, w1, b1, w2, b2):
    """The trainer's own gradient kernel, on its own buffers."""
    layers = (w1, b1, w2, b2)
    grads = tuple(np.empty_like(p) for p in layers)
    batch_gradients(x, y, np.arange(len(y)), layers, grads)
    return grads


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, size=(12, 6))
    y = rng.integers(0, 4, size=12)
    w1 = rng.normal(0, 0.5, size=(6, 5))
    b1 = rng.normal(0, 0.1, size=5)
    w2 = rng.normal(0, 0.5, size=(5, 4))
    b2 = rng.normal(0, 0.1, size=4)
    return x, y, w1, b1, w2, b2


def numeric_grad(param, index, eps, x, y, w1, b1, w2, b2):
    params = [w1.copy(), b1.copy(), w2.copy(), b2.copy()]
    params[param].flat[index] += eps
    plus = forward_loss(x, y, *params)
    params[param].flat[index] -= 2 * eps
    minus = forward_loss(x, y, *params)
    return (plus - minus) / (2 * eps)


@pytest.mark.parametrize("param", [0, 1, 2, 3])
def test_gradients_match_finite_differences(setup, param):
    x, y, w1, b1, w2, b2 = setup
    grads = analytic_grads(x, y, w1, b1, w2, b2)
    analytic = grads[param]
    rng = np.random.default_rng(param)
    for index in rng.choice(analytic.size, size=min(10, analytic.size), replace=False):
        numeric = numeric_grad(param, index, 1e-6, x, y, w1, b1, w2, b2)
        assert analytic.flat[index] == pytest.approx(numeric, abs=1e-5)


def test_training_improves_over_untrained(setup):
    """Epochs of the real trainer must beat the untrained model."""
    from repro.workloads.datagen import cifar_like
    from repro.workloads.deeplearning import MLPTrainer

    data = cifar_like(400, features=16, seed=1)
    train, val = data.split(0.2, seed=0)
    untrained = MLPTrainer(hidden=8, epochs=0, seed=2).train(
        train, val, "gaussian-0.1", 0.05, 0.9
    )
    trained = MLPTrainer(hidden=8, epochs=8, seed=2).train(
        train, val, "gaussian-0.1", 0.05, 0.9
    )
    assert trained.accuracy > untrained.accuracy
