"""Pin the SGD kernel's exact output.

A grid that reaches each branch of the kernel — both init families,
momentum off and on, zero, one and several epochs, a training set with a
partial last batch and one smaller than a batch, and two hidden widths —
is trained twice in this process: by ``MLPTrainer.train`` and by the
per-array kernel it replaced (:func:`reference_train`).  Every weight,
bias and accuracy must match bit for bit.  Both sides call the same BLAS,
so the comparison holds on whichever kernel OpenBLAS picks for the CPU.

``DIGEST`` is one sha256 over the reference's output, recorded on
OpenBLAS's SkylakeX kernels; dgemm's summation order differs per kernel,
so it is asserted only where the running core is SkylakeX.  It keeps the
reference itself from drifting.  The arrays are hashed as their dtype,
shape and raw bytes rather than as pickles: a pickle names numpy's module
path, which differs between numpy releases.
"""

import ctypes
import glob
import hashlib
import itertools
import os
import pickle

import numpy as np
import pytest

from repro.workloads.datagen import LabelledImages, cifar_like
from repro.workloads.deeplearning import MLPTrainer, TrainedModel, _init_matrix

#: the reference's grid digest under OpenBLAS's SkylakeX kernels
DIGEST = "7a68ee59c2f482eec0f3e8426ba149164eaf208d35d21a1555bd39d0f2a4f282"
DIGEST_CORE = "SkylakeX"

INITS = ("gaussian-0.1", "uniform-0.5")
MOMENTA = (0.0, 0.9)
EPOCHS = (0, 1, 5)
#: 480 = 7 × 64 + 32 (a partial last batch); 40 < batch_size
TRAIN_SIZES = (480, 40)
HIDDEN = (8, 16)


def reference_train(trainer, train, val, init, learning_rate, momentum) -> TrainedModel:
    """``MLPTrainer.train`` as it was before the in-place kernel: one array
    per layer, each step's velocities and gradients freshly allocated."""
    rng = np.random.default_rng(trainer.seed)
    d = train.x.shape[1]
    x = train.x / 255.0
    w1 = _init_matrix((d, trainer.hidden), init, rng)
    b1 = np.zeros(trainer.hidden)
    w2 = _init_matrix((trainer.hidden, trainer.num_classes), init, rng)
    b2 = np.zeros(trainer.num_classes)
    v_w1, v_b1, v_w2, v_b2 = map(np.zeros_like, (w1, b1, w2, b2))
    n = len(train)
    for _ in range(trainer.epochs):
        order = rng.permutation(n)
        for start in range(0, n, trainer.batch_size):
            batch = order[start : start + trainer.batch_size]
            xb, yb = x[batch], train.y[batch]
            # forward
            pre = xb @ w1 + b1
            hid = np.maximum(pre, 0.0)
            logits = hid @ w2 + b2
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            grad_logits = exp / exp.sum(axis=1, keepdims=True)
            # backward (cross-entropy)
            grad_logits[np.arange(len(yb)), yb] -= 1.0
            grad_logits /= len(yb)
            g_w2 = hid.T @ grad_logits
            g_b2 = grad_logits.sum(axis=0)
            grad_hid = grad_logits @ w2.T
            grad_hid[pre <= 0.0] = 0.0
            g_w1 = xb.T @ grad_hid
            g_b1 = grad_hid.sum(axis=0)
            # SGD with momentum
            v_w1 = momentum * v_w1 - learning_rate * g_w1
            v_b1 = momentum * v_b1 - learning_rate * g_b1
            v_w2 = momentum * v_w2 - learning_rate * g_w2
            v_b2 = momentum * v_b2 - learning_rate * g_b2
            w1 += v_w1
            b1 += v_b1
            w2 += v_w2
            b2 += v_b2
    model = TrainedModel(w1, b1, w2, b2, 0.0, init, learning_rate, momentum)
    model.accuracy = float(np.mean(model.predict(val.x / 255.0) == val.y))
    return model


def openblas_core():
    """The OpenBLAS kernel family this process runs (``"SkylakeX"``,
    ``"Haswell"``, ...), or ``None`` when numpy's bundled OpenBLAS cannot
    be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


@pytest.fixture(scope="module")
def data():
    images = cifar_like(600, features=16, seed=1)
    val = LabelledImages(images.x[480:], images.y[480:])
    return images, val


@pytest.fixture(scope="module")
def trained(data):
    """``[(case, train's model, the reference's model)]`` over the grid."""
    images, val = data
    out = []
    for case in itertools.product(INITS, MOMENTA, EPOCHS, TRAIN_SIZES, HIDDEN):
        init, momentum, epochs, n, hidden = case
        trainer = MLPTrainer(hidden=hidden, epochs=epochs, seed=5)
        train = LabelledImages(images.x[:n], images.y[:n])
        out.append(
            (
                case,
                trainer.train(train, val, init, 0.01, momentum),
                reference_train(trainer, train, val, init, 0.01, momentum),
            )
        )
    return out


def _fields(model: TrainedModel):
    return (model.weights1, model.bias1, model.weights2, model.bias2)


def _exact(array):
    return f"{array.dtype.str}{array.shape}".encode() + np.ascontiguousarray(array).tobytes()


def test_trained_models_are_bit_identical_to_the_pinned_kernel(trained):
    mismatches = [
        case
        for case, ours, reference in trained
        if [_exact(a) for a in _fields(ours)] != [_exact(a) for a in _fields(reference)]
        or ours.accuracy.hex() != reference.accuracy.hex()
    ]
    assert len(trained) == 48
    assert mismatches == []


def test_the_reference_kernel_reproduces_the_recorded_digest(trained):
    core = openblas_core()
    if core != DIGEST_CORE:
        pytest.skip(f"DIGEST is {DIGEST_CORE}'s; this process runs OpenBLAS core {core!r}")
    digest = hashlib.sha256()
    for _, _, reference in trained:
        for array in _fields(reference):
            digest.update(_exact(array))
        digest.update(reference.accuracy.hex().encode())
    assert digest.hexdigest() == DIGEST


def test_the_payload_owns_its_arrays(data):
    """A model holds its own arrays, so it pickles no more than them."""
    images, val = data
    train = LabelledImages(images.x[:480], images.y[:480])
    model = MLPTrainer(hidden=8, epochs=1, seed=5).train(
        train, val, "gaussian-0.1", 0.01, 0.9
    )
    for array in _fields(model):
        assert array.base is None and array.flags.c_contiguous
    copy = pickle.loads(pickle.dumps(model))
    for ours, theirs in zip(_fields(model), _fields(copy)):
        assert ours.tobytes() == theirs.tobytes()
