"""Iterative (fixpoint) computation inside an MDF (§3.2).

The paper: dataflow systems unroll iterations (App. A); a naive MDF would
run every branch's fixpoint to completion before choosing.  "To avoid
full execution of branches, however, a choose operator is incorporated in
the iteration itself.  It then terminates the branch early if, e.g. the
computation is not converging."

:func:`iterative_explore_mdf` builds that pattern: each explored
configuration unrolls into ``max_rounds`` step operators.  The iteration
state carries a liveness flag — once a branch converges (or is declared
divergent) the remaining unrolled steps short-circuit, so no further real
computation happens, and the branch's evaluator score reflects where it
stopped.  Combined with a non-exhaustive selection (e.g. "first k
converged"), the scope's choose terminates the remaining branches without
ever executing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..core.builder import MDFBuilder, Pipe
from ..core.evaluators import CallableEvaluator
from ..core.mdf import MDF
from ..core.operators import Source
from ..core.selection import SelectionFunction, TopK

StepFn = Callable[[Any, Any], Any]  # (state, config) -> next state
PredFn = Callable[[Any, Any], bool]  # (state, config) -> bool


@dataclass
class IterationState:
    """The payload threaded through the unrolled iteration of one branch."""

    value: Any
    rounds: int = 0
    converged: bool = False
    diverged: bool = False

    @property
    def alive(self) -> bool:
        return not (self.converged or self.diverged)


def iterative_explore_mdf(
    initial: Any,
    configs: Sequence[Any],
    step_fn: StepFn,
    converged_fn: PredFn,
    diverged_fn: Optional[PredFn] = None,
    max_rounds: int = 10,
    selection: Optional[SelectionFunction] = None,
    nominal_bytes: Optional[int] = None,
) -> MDF:
    """Explore fixpoint configurations with in-iteration early termination.

    Each branch starts from ``initial`` and applies ``step_fn(state,
    config)`` up to ``max_rounds`` times, stopping as soon as
    ``converged_fn`` (success) or ``diverged_fn`` (failure) fires.  The
    choose's evaluator scores a branch by how quickly it converged
    (``max_rounds − rounds`` for converged branches, a large negative
    penalty for diverged or unconverged ones); the default selection keeps
    the fastest-converging configuration.

    The final payload is a one-element list with the winning
    :class:`IterationState`.
    """
    selection = selection or TopK(1)
    diverged_fn = diverged_fn or (lambda state, config: False)

    builder = MDFBuilder("iterative-explore")
    src = builder.read(
        Source.from_data([initial], name="read-initial", nominal_bytes=nominal_bytes)
    )

    def make_step(config: Any, round_index: int, label: str):
        def step(payload):
            states = [
                s if isinstance(s, IterationState) else IterationState(s)
                for s in payload
            ]
            out: List[IterationState] = []
            for state in states:
                if not state.alive:
                    out.append(state)  # short-circuit: no more computation
                    continue
                value = step_fn(state.value, config)
                nxt = IterationState(value, rounds=state.rounds + 1)
                if converged_fn(value, config):
                    nxt.converged = True
                elif diverged_fn(value, config):
                    nxt.diverged = True
                out.append(nxt)
            return out

        step.__name__ = label
        return step

    def branch(pipe: Pipe, p) -> Pipe:
        config = p["config"]
        for round_index in range(max_rounds):
            pipe = pipe.transform(
                make_step(config, round_index, f"step-{p['_i']}-{round_index}"),
                name=f"step-{p['_i']}-r{round_index}",
                cost_factor=1.0,
            )
        return pipe

    def score(payload) -> float:
        states = [s for s in payload if isinstance(s, IterationState)]
        if not states:
            return float("-inf")
        state = states[0]
        if state.diverged:
            return -1e9
        if not state.converged:
            return -1e6
        return float(max_rounds - state.rounds)

    result = src.explore(
        {"_i": list(range(len(configs)))},
        lambda pipe, p: branch(pipe, {"config": configs[p["_i"]], "_i": p["_i"]}),
        name="explore-configs",
    ).choose(
        CallableEvaluator(score, name="convergence-speed"),
        selection,
        name="choose-config",
    )
    result.write(name="result")
    return builder.build()
