"""``python -m repro lab``: the policy lab.

Runs the experimentation grid once, prints its comparative table and the
cells that break the when-not-what contract against their ``bfs`` and
``serial`` twins, optionally writes the report as a JSON artifact (the CI
``lab-smoke`` job uploads it), and exits 1 on any mismatch.  See
``docs/scheduling.md``.
"""

from __future__ import annotations

import sys
from typing import TextIO

from .experiment import Experimentation


def cmd_lab(args, out: TextIO) -> int:
    experiment = Experimentation(
        schedulers=args.policies,
        memories=args.memories,
        workloads=args.workloads,
        cluster_sizes=args.sizes or [None],
        backends=args.backends,
    )
    print(
        f"policy lab: {len(experiment.schedulers)} schedulers × "
        f"{len(experiment.workloads)} workloads × {len(experiment.memories)} "
        f"memory policies × {len(experiment.cluster_sizes)} cluster sizes × "
        f"{len(experiment.backends)} backends",
        file=out,
    )
    report = experiment.run(progress=lambda line: print(f"  {line}", file=out))
    print(file=out)
    print(report.render_table(), file=out)
    if args.artifact:
        report.save(args.artifact)
        print(f"\nartifact written to {args.artifact}", file=out)
    mismatched = report.mismatches()
    for line in mismatched:
        print(f"mismatch: {line}", file=sys.stderr)
    if mismatched:
        print(f"\n{len(mismatched)}/{len(report.cells)} cells FAILED", file=sys.stderr)
        return 1
    print(f"\n{len(report.cells)} cells match their bfs and serial twins", file=out)
    return 0
