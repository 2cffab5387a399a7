"""Result identity: one set of inputs, one byte-exact result.

The result store addresses an entry by the simulated inputs alone
(workload, technique, config) and serves it to every later caller, so a
run's statistics must be a pure function of those inputs.  This module
pins that along two seams:

* the (smoke workload × arm) matrix — a run on a warm workload object and
  a run on a freshly built one give canonical-JSON-identical stats, and
  the CPI stack conserves cycles;
* the store key — a request written with the retired request-level
  ``"backend"`` key (journals and request bodies from when the simulator
  had a second timing core) addresses the same entry as one without it.
"""

import json

import pytest

from repro.config.gpu_config import volta
from repro.core.techniques import resolve_technique
from repro.harness.executor import ExperimentRequest
from repro.harness._runner import run_workload
from repro.workloads import make_workload
from repro.workloads.suite import SMOKE_NAMES

#: The five simulated arms of the paper's evaluation (the golden suite's
#: arms plus the static wavefront limiter).
EQUIVALENCE_ARMS = ("baseline", "cars", "swl_4", "regdem", "rfcache")


def _canonical(stats):
    """Canonical JSON bytes of a stats payload (what the store persists)."""
    return json.dumps(stats.to_dict(), sort_keys=True)


@pytest.fixture(scope="module", params=SMOKE_NAMES)
def workload(request):
    return make_workload(request.param)


@pytest.mark.parametrize("arm", EQUIVALENCE_ARMS)
def test_warm_and_fresh_runs_identical(workload, arm):
    technique = resolve_technique(arm)
    warm = run_workload(workload, technique).stats
    assert sum(warm.cpi_stack.values()) == warm.cycles, (
        f"{workload.name}/{arm}: CPI stack leaks cycles"
    )
    # A fresh object rebuilds the module and trace caches, so a run that
    # mutated them (or any hidden state) shows up as a divergence.
    fresh = run_workload(make_workload(workload.name), technique).stats
    assert _canonical(fresh) == _canonical(warm), (
        f"{workload.name}/{arm}: a fresh run diverged from a warm one"
    )


class TestResultStoreSeam:
    def test_store_key_excludes_backend(self):
        workload = make_workload("FIB")
        body = ExperimentRequest("FIB", "cars", volta()).to_dict()
        assert "backend" not in body
        keys = {
            ExperimentRequest.from_dict(dict(body, **legacy)).store_key(workload)
            for legacy in ({}, {"backend": "event"}, {"backend": "vectorized"})
        }
        assert len(keys) == 1, "a legacy backend key forked the store key"
