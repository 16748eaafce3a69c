"""CLI for the policy lab: ``python -m repro.lab``.

Runs the comparative experimentation sweep and (by default) the
differential when-not-what matrix, prints both tables and optionally
writes a JSON artifact the CI ``lab-smoke`` job uploads.

Examples::

    python -m repro.lab --policies all --workloads smoke
    python -m repro.lab --policies heft,wsteal --workloads full \
        --memories amm,lru --artifact lab_results.json
    python -m repro.lab --no-differential --sizes 2,4,8
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..engine.policies import available_schedulers
from .differential import differential_matrix, render_matrix
from .experiment import Experimentation
from .workloads import available_workloads


def _parse_names(spec: str, universe: List[str], label: str) -> List[str]:
    """Resolve a comma list / ``all`` / a tag keyword against ``universe``."""
    if spec == "all":
        return universe
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in universe]
    if unknown:
        raise SystemExit(
            f"unknown {label} {unknown} (available: {universe})"
        )
    return names


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lab",
        description="comparative scheduler/eviction policy experiments",
    )
    parser.add_argument(
        "--policies",
        default="all",
        help="comma list of scheduler names, or 'all' (default)",
    )
    parser.add_argument(
        "--workloads",
        default="smoke",
        help="comma list of zoo workload names, or a tag: 'smoke' "
        "(default) / 'full' / 'all'",
    )
    parser.add_argument(
        "--memories",
        default="amm",
        help="comma list of eviction-policy names crossed in (default: amm)",
    )
    parser.add_argument(
        "--sizes",
        default="",
        help="comma list of worker counts to sweep (default: each "
        "workload's own shape)",
    )
    parser.add_argument(
        "--backends",
        default="serial",
        help="comma list of execution backends crossed in (default: "
        "serial; add mp to prove backend choice never moves a simulated "
        "number: exit 1 when a cell differs from its serial twin)",
    )
    parser.add_argument(
        "--reference",
        default="bfs",
        help="reference policy for the differential matrix (default: bfs)",
    )
    parser.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="write the comparative report + differential matrix as JSON",
    )
    parser.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the when-not-what differential matrix",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )
    args = parser.parse_args(argv)

    schedulers = _parse_names(args.policies, available_schedulers(), "scheduler")
    if args.workloads in ("smoke", "full"):
        workloads = available_workloads(args.workloads)
    else:
        workloads = _parse_names(
            args.workloads, available_workloads(), "workload"
        )
    from ..cluster.memory import available_policies

    memories = _parse_names(args.memories, available_policies(), "memory policy")
    from ..engine.backends import available_backends

    backends = _parse_names(args.backends, available_backends(), "backend")
    sizes = (
        [int(s) for s in args.sizes.split(",") if s.strip()]
        if args.sizes
        else [None]
    )

    progress = None if args.quiet else lambda line: print(f"  {line}")
    experiment = Experimentation(
        schedulers=schedulers,
        memories=memories,
        workloads=workloads,
        cluster_sizes=sizes,
        backends=backends,
    )
    print(
        f"policy lab: {len(schedulers)} schedulers × {len(workloads)} "
        f"workloads × {len(memories)} memory policies × "
        f"{len(sizes)} cluster sizes × {len(backends)} backends"
    )
    report = experiment.run(progress=progress)
    print()
    print(report.render_table())

    artifact = {"experiment": report.to_json()}
    mismatched = report.backend_mismatches()
    for cell in mismatched:
        print(f"differs from serial: {cell}", file=sys.stderr)
    ok = not mismatched
    if not args.no_differential:
        print()
        cells = differential_matrix(
            schedulers=schedulers,
            workloads=workloads,
            reference=args.reference,
        )
        print(render_matrix(cells))
        ok = ok and all(c.passed for c in cells)
        artifact["differential"] = [
            {
                "workload": c.workload,
                "scheduler": c.scheduler,
                "reference": c.reference,
                "passed": c.passed,
                "detail": c.describe(),
            }
            for c in cells
        ]

    if args.artifact:
        with open(args.artifact, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nartifact written to {args.artifact}")

    if not ok:
        print("\nbackend identity or differential matrix FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
