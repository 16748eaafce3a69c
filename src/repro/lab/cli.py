"""``python -m repro lab``: the policy lab.

Runs the comparative experimentation sweep and the differential
when-not-what matrix against ``bfs``, prints both tables and optionally
writes a JSON artifact the CI ``lab-smoke`` job uploads.  See
``docs/scheduling.md``.
"""

from __future__ import annotations

import json
import sys
from typing import TextIO

from .differential import differential_matrix, render_matrix
from .experiment import Experimentation


def cmd_lab(args, out: TextIO) -> int:
    sizes = args.sizes or [None]
    experiment = Experimentation(
        schedulers=args.policies,
        memories=args.memories,
        workloads=args.workloads,
        cluster_sizes=sizes,
        backends=args.backends,
    )
    print(
        f"policy lab: {len(args.policies)} schedulers × {len(args.workloads)} "
        f"workloads × {len(args.memories)} memory policies × "
        f"{len(sizes)} cluster sizes × {len(args.backends)} backends",
        file=out,
    )
    report = experiment.run(progress=lambda line: print(f"  {line}", file=out))
    print(file=out)
    print(report.render_table(), file=out)

    artifact = {"experiment": report.to_json()}
    mismatched = report.backend_mismatches()
    for cell in mismatched:
        print(f"differs from serial: {cell}", file=sys.stderr)
    print(file=out)
    cells = differential_matrix(schedulers=args.policies, workloads=args.workloads)
    print(render_matrix(cells), file=out)
    ok = not mismatched and all(c.passed for c in cells)
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
        print(f"\nartifact written to {args.artifact}", file=out)

    if not ok:
        print("\nbackend identity or differential matrix FAILED", file=sys.stderr)
        return 1
    return 0
