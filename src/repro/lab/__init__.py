"""The policy lab: comparative scheduler/eviction experiments.

Three pieces (see ``docs/scheduling.md`` for the walkthrough):

* :mod:`repro.lab.workloads` — the workload zoo: named, reproducible
  MDF + cluster pairs with tags (``smoke`` = CI tier);
* :mod:`repro.lab.experiment` — the accasim-style
  :class:`~repro.lab.experiment.Experimentation` harness running every
  policy × workload × cluster-size cell and emitting comparative tables
  (text + JSON artifact) and perf-gate baselines;
* :mod:`repro.lab.differential` — differential policy testing: every
  registered scheduler must produce byte-identical outputs and
  validator-clean traces on every zoo workload ("policies may change
  *when*, never *what*").

Run the whole lab from the command line::

    python -m repro lab --policies all --workloads smoke
"""

from .differential import (
    DifferentialCell,
    assert_differential,
    compare_cell,
    differential_matrix,
    render_matrix,
)
from .experiment import CellResult, Experimentation, LabReport
from .workloads import (
    WORKLOADS,
    LabWorkload,
    available_workloads,
    get_workload,
    register_workload,
)

__all__ = [
    "CellResult",
    "DifferentialCell",
    "Experimentation",
    "LabReport",
    "LabWorkload",
    "WORKLOADS",
    "assert_differential",
    "available_workloads",
    "compare_cell",
    "differential_matrix",
    "get_workload",
    "register_workload",
    "render_matrix",
]
