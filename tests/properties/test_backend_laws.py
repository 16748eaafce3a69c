"""Property tests: backend choice never changes a simulated byte.

For sampled (zoo workload × scheduler) cells, a run on the ``mp``
process-pool backend must be indistinguishable from the ``serial``
reference everywhere the simulation can be observed:

* **outputs** — identical final sink values;
* **clock** — identical simulated completion time;
* **trace** — the canonical JSONL export matches byte for byte;
* **validators** — the paper-invariant checkers stay clean;
* **telemetry** — the live metrics registries agree on every
  consistency view (``diff_registries`` returns no mismatches).

Only real wall-clock time may differ.  The sample crosses the smoke
tier with ``wide_topk``, whose prefetched sibling stages reach the sink,
so a backend that alters a prefetched result shows in the outputs.  Run
just these with ``pytest -m backend_laws``.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.job import outputs_digest
from repro.lab.workloads import available_workloads, get_workload
from repro.obs.bridge import diff_registries
from repro.trace.validate import validate_trace

pytestmark = pytest.mark.backend_laws

fork_available = "fork" in multiprocessing.get_all_start_methods()

workloads = st.sampled_from([*available_workloads("smoke"), "wide_topk"])
schedulers = st.sampled_from(["bas", "bfs"])


@pytest.mark.skipif(
    not fork_available, reason="mp backend parallelism needs the fork start method"
)
@given(workload=workloads, scheduler=schedulers)
@settings(max_examples=8, deadline=None)
def test_mp_backend_is_byte_identical(workload, scheduler):
    subject = get_workload(workload)
    serial_result, serial_cluster = subject.run(
        scheduler=scheduler, memory="amm", backend="serial"
    )
    mp_result, mp_cluster = subject.run(
        scheduler=scheduler, memory="amm", backend="mp"
    )
    assert outputs_digest(mp_result.outputs) == outputs_digest(serial_result.outputs)
    assert mp_result.completion_time == serial_result.completion_time
    assert mp_result.events.to_jsonl() == serial_result.events.to_jsonl()
    assert validate_trace(mp_result.events) == []
    assert diff_registries(serial_cluster.obs, mp_cluster.obs) == []
