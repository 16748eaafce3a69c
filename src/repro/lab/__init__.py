"""The policy lab: comparative scheduler/eviction experiments.

Two pieces (see ``docs/scheduling.md`` for the walkthrough):

* :mod:`repro.lab.workloads` — the workload zoo: named, reproducible
  MDF + cluster pairs with tags (``smoke`` = CI tier);
* :mod:`repro.lab.experiment` — the accasim-style
  :class:`~repro.lab.experiment.Experimentation` grid, running every
  policy × workload × memory × cluster-size × backend cell once into a
  :class:`~repro.lab.experiment.LabReport`, whose one reducer
  :meth:`~repro.lab.experiment.LabReport.mismatches` checks the lab's
  contract: against its ``bfs`` and ``serial`` twins, a cell has the
  same output digest and choose decisions, and a validator-clean,
  replay-consistent trace ("policies may change *when*, never *what*").

Run the whole lab from the command line::

    python -m repro lab --policies all --workloads smoke
"""

from .experiment import CellResult, Experimentation, LabReport, run_cell
from .workloads import (
    WORKLOADS,
    LabWorkload,
    available_workloads,
    get_workload,
    register_workload,
)

__all__ = [
    "CellResult",
    "Experimentation",
    "LabReport",
    "LabWorkload",
    "WORKLOADS",
    "available_workloads",
    "get_workload",
    "register_workload",
    "run_cell",
]
