"""Pin the SGD kernel's exact output.

One sha256 over every trained model's fields — weights, biases and
validation accuracy — for a grid that reaches each branch of the kernel:
both init families, momentum off and on, zero, one and several epochs, a
training set with a partial last batch and one smaller than a batch, and
two hidden widths.  A rewrite of ``MLPTrainer.train`` that is not bit for
bit the same changes the digest.

The arrays are hashed as their dtype, shape and raw bytes rather than as
pickles: a pickle names numpy's module path, which differs between numpy
releases, and the digest must hold on every interpreter CI runs.
"""

import hashlib
import itertools
import pickle

import numpy as np
import pytest

from repro.workloads.datagen import LabelledImages, cifar_like
from repro.workloads.deeplearning import MLPTrainer, TrainedModel

#: recorded on the per-array kernel; the in-place one must match it bit for bit
DIGEST = "7a68ee59c2f482eec0f3e8426ba149164eaf208d35d21a1555bd39d0f2a4f282"

INITS = ("gaussian-0.1", "uniform-0.5")
MOMENTA = (0.0, 0.9)
EPOCHS = (0, 1, 5)
#: 480 = 7 × 64 + 32 (a partial last batch); 40 < batch_size
TRAIN_SIZES = (480, 40)
HIDDEN = (8, 16)


@pytest.fixture(scope="module")
def data():
    images = cifar_like(600, features=16, seed=1)
    val = LabelledImages(images.x[480:], images.y[480:])
    return images, val


def _fields(model: TrainedModel):
    return (model.weights1, model.bias1, model.weights2, model.bias2)


def grid_digest(images, val) -> str:
    digest = hashlib.sha256()
    for init, momentum, epochs, n, hidden in itertools.product(
        INITS, MOMENTA, EPOCHS, TRAIN_SIZES, HIDDEN
    ):
        train = LabelledImages(images.x[:n], images.y[:n])
        model = MLPTrainer(hidden=hidden, epochs=epochs, seed=5).train(
            train, val, init, 0.01, momentum
        )
        for array in _fields(model):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(model.accuracy.hex().encode())
    return digest.hexdigest()


def test_trained_models_are_bit_identical_to_the_pinned_kernel(data):
    assert grid_digest(*data) == DIGEST


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
