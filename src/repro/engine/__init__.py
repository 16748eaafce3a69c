"""MDF execution engine: schedulers (Alg. 1), executor, master, runner."""

from .estimate import CostEstimate, StageEstimate, estimate_mdf
from .executor import StageExecutor, StageOutcome, StageTimes
from .hints import (
    ModelBasedHint,
    PriorityHint,
    RandomHint,
    SchedulingHint,
    SortedHint,
)
from .job import ChooseDecision, EngineConfig, JobResult
from .master import Master
from .policies import (
    ListScheduler,
    RandomScheduler,
    SpeculativeScheduler,
    WorkStealingScheduler,
    available_schedulers,
    register_scheduler,
)
from .recovery import RecoveryManager
from .runner import RunObserver, make_scheduler, observing, run_mdf
from .scheduler import (
    BFSScheduler,
    BranchAwareScheduler,
    Scheduler,
    SchedulerContext,
)
from .tasks import Task, expand_stage

__all__ = [
    "BFSScheduler",
    "BranchAwareScheduler",
    "ChooseDecision",
    "CostEstimate",
    "EngineConfig",
    "JobResult",
    "ListScheduler",
    "Master",
    "ModelBasedHint",
    "PriorityHint",
    "RandomHint",
    "RandomScheduler",
    "RecoveryManager",
    "RunObserver",
    "Scheduler",
    "SchedulerContext",
    "SchedulingHint",
    "SortedHint",
    "SpeculativeScheduler",
    "StageExecutor",
    "StageOutcome",
    "StageTimes",
    "StageEstimate",
    "Task",
    "WorkStealingScheduler",
    "available_schedulers",
    "estimate_mdf",
    "expand_stage",
    "make_scheduler",
    "observing",
    "register_scheduler",
    "run_mdf",
]
