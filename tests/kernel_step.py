"""Wall time of the SGD kernel: median ms per ``MLPTrainer.train`` and µs per step.

``python tests/kernel_step.py`` (with ``PYTHONPATH=src``) trains
``MLPTrainer(hidden=16, epochs=5)`` on ``cifar_like(600, 64, seed=1)``'s
training split — the trainer and data of ``benchmarks/wall``'s
``heavy_branches`` — for four (init, rate, momentum) corners, interleaved
over the repetitions so a slow spell lands on all of them alike.  A step
is one mini-batch (the per-train time over its steps, validation
included).  Wall-clock: compare runs on one machine.  Not collected by pytest.
"""

import os
import statistics
import time

from repro.workloads.datagen import cifar_like
from repro.workloads.deeplearning import MLPTrainer, preprocess_images

CORNERS = [("gaussian-0.01", 0.0001, 0.25), ("gaussian-0.5", 0.01, 0.9),
           ("uniform-0.05", 0.001, 0.5), ("uniform-1.0", 0.005, 0.75)]


def kernel_step(reps: int = 25):
    train, val = cifar_like(600, features=64, seed=1).split(0.2, seed=1)
    train = preprocess_images(train)
    trainer = MLPTrainer(hidden=16, epochs=5)
    steps = trainer.epochs * -(-len(train) // trainer.batch_size)
    samples = []
    for _ in range(reps):
        for corner in CORNERS:
            t0 = time.perf_counter()
            trainer.train(train, val, *corner)
            samples.append(time.perf_counter() - t0)
    ms = statistics.median(samples) * 1e3
    return ms, ms * 1e3 / steps


if __name__ == "__main__":
    ms, us = kernel_step()
    print(f"{ms:.3f} ms per train / {us:.1f} us per step (cpu_count {os.cpu_count()})")
