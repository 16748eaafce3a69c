"""Sensor-data profiling with kernel density estimation (paper §2.2, Fig. 3).

The paper's running example: model regular oil-well operation by (1)
removing outliers from raw sensor readings and (2) estimating the reading
distribution with a KDE.  Both steps have explorables — the outlier
threshold, the kernel function, the bandwidth.

This example runs two MDF variants:

* the *flat* profiling MDF (Fig. 3b): explore pre-processing × kernel ×
  bandwidth, keep the estimate with the best hold-out log-likelihood;
* the *scoped* MDF (Fig. 3c / Example 3.5): an early choose closes the
  outlier scope as soon as a threshold retains enough data, pruning the
  remaining thresholds before any KDE runs.

Run:  python examples/sensor_profiling.py
"""

from repro import Cluster, GB, MB
from repro.engine import run_mdf
from repro.workloads import kde_mdf, kde_scoped_mdf, normal_values


def main() -> None:
    readings = normal_values(20_000, mu=100.0, sigma=8.0, seed=42)
    cluster = Cluster(num_workers=8, mem_per_worker=2 * GB)

    # ---- flat exploration (Fig. 3b style) ---------------------------------
    mdf = kde_mdf(readings, nominal_bytes=1 * GB)
    job = run_mdf(mdf, cluster, scheduler="bas", memory="amm")
    winner = job.output[0]
    print("== flat profiling MDF (2 x 4 x 3 = 24 configurations) ==")
    print(f"completion time : {job.completion_time:.2f} simulated s")
    print(f"winning estimate: kernel={winner.kernel}  bandwidth={winner.bandwidth}")
    print(f"fit sample size : {winner.sample_size}")
    for name, decision in job.decisions.items():
        print(f"  {name}: kept {decision.kept}")

    # ---- scoped exploration (Fig. 3c / Example 3.5) -----------------------
    scoped = kde_scoped_mdf(readings, nominal_bytes=1 * GB)
    job2 = run_mdf(scoped, cluster, scheduler="bas", memory="amm")
    outlier_decision = job2.decision_for("choose-outlier")
    print("\n== scoped MDF: early choose on the outlier threshold ==")
    print(f"completion time   : {job2.completion_time:.2f} simulated s")
    print(f"thresholds scored : {len(outlier_decision.scores)}")
    print(f"thresholds pruned : {len(outlier_decision.pruned)} (never executed)")
    print(f"kept threshold    : {outlier_decision.kept}")
    final = job2.output[0]
    print(f"final estimate    : kernel={final.kernel}  bandwidth={final.bandwidth}")


if __name__ == "__main__":
    main()
