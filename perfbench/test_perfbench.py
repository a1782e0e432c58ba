"""The benchmark's own tests.

* A delay injected into ``route_permutation`` at its call site must raise
  ``routing.self_ms`` and ``latency_p50_ms`` on ``chain_scalability`` and
  leave ``large_host_anneal`` (one workspace, no routing) flat.  The
  untraced latency is calibrated (``calibration.py``), so the delay counts
  there as its wall time scaled by the kernel runs around it.
* A corrupted result must be counted as a failed job.

They run small subsets of the seeded workloads in-process; run them with
``python -m pytest -m bench perfbench -q`` (the ``bench`` marker keeps them
out of the quick tier-1 run).
"""

import dataclasses
import time

import pytest

import calibration
import repro.core.placement as placement_module
import run
import workloads

pytestmark = pytest.mark.bench

ROUTING_DELAY_S = 0.03


def _measure(workload, groups, trace):
    return run.measure(workload, 0, 0, trace, groups=groups, isolated=False)


def _value(result, name):
    return result["metrics"][name]["value"]


def _slow_routing(monkeypatch):
    original = placement_module.route_permutation
    calls = []

    def delayed(*args, **kwargs):
        calls.append(1)
        time.sleep(ROUTING_DELAY_S)
        return original(*args, **kwargs)

    monkeypatch.setattr(placement_module, "route_permutation", delayed)
    return calls


def _record_kernel_runs(monkeypatch):
    runs = []
    original = calibration.Calibrator.sample

    def recording(self):
        elapsed = original(self)
        runs.append(elapsed)
        return elapsed

    monkeypatch.setattr(calibration.Calibrator, "sample", recording)
    return runs


def test_routing_delay_moves_chain_and_not_large_host(monkeypatch):
    chain = workloads.chain_scalability(0)[:6]
    host = workloads.large_host_anneal(0)[:2]
    base = {
        (name, trace): _measure(name, groups, trace)
        for name, groups in (("chain_scalability", chain), ("large_host_anneal", host))
        for trace in (0, 1)
    }
    calls = _slow_routing(monkeypatch)
    kernel_runs = _record_kernel_runs(monkeypatch)
    slow = {("chain_scalability", 0): _measure("chain_scalability", chain, 0)}
    # Every job is scaled by at least NOMINAL_S / the slowest kernel run.
    least_scale = calibration.NOMINAL_S / max(kernel_runs)
    slow[("chain_scalability", 1)] = _measure("chain_scalability", chain, 1)
    assert calls, "the delayed router was never called"
    calls.clear()
    slow.update({key: _measure(key[0], host, key[1])
                 for key in (("large_host_anneal", 0), ("large_host_anneal", 1))})
    assert not calls, "large_host_anneal must not route"

    for result in list(base.values()) + list(slow.values()):
        assert result["correct"] and result["failed"] == 0

    routed = _value(slow["chain_scalability", 1], "routing.calls")
    assert routed >= 1
    added_ms = routed * ROUTING_DELAY_S * 1000.0
    assert (_value(slow["chain_scalability", 1], "routing.self_ms")
            - _value(base["chain_scalability", 1], "routing.self_ms")) >= 0.9 * added_ms
    assert (_value(slow["chain_scalability", 0], "latency_p50_ms")
            - _value(base["chain_scalability", 0], "latency_p50_ms")
            ) >= ROUTING_DELAY_S * 1000.0 * least_scale

    assert _value(slow["large_host_anneal", 1], "routing.calls") == 0
    assert _value(slow["large_host_anneal", 1], "routing.self_ms") == 0
    ratio = (_value(slow["large_host_anneal", 0], "latency_p50_ms")
             / _value(base["large_host_anneal", 0], "latency_p50_ms"))
    assert 0.75 <= ratio <= 1.25


def _swap_two_qubits(result):
    stage = result.stages[0]
    placement = dict(stage.placement)
    first, second = list(placement)[:2]
    placement[first], placement[second] = placement[second], placement[first]
    result.stages[0] = dataclasses.replace(stage, placement=placement)


def _stretch_runtime(result):
    result.total_runtime *= 1.000001


@pytest.mark.parametrize("corrupt", [_swap_two_qubits, _stretch_runtime])
def test_corrupted_result_counts_as_failed(monkeypatch, corrupt):
    target = "error-correction-encoding@acetyl-chloride@default"
    groups = [group for group in workloads.paper_tables(0)
              if any(job.label == target for job in group)]
    clean = _measure("paper_tables", groups, 0)
    assert clean["correct"] and clean["failed"] == 0

    original = workloads.place_circuit

    def corrupting(circuit, environment, options):
        result = original(circuit, environment, options)
        if circuit.name == "error correction encoding":
            corrupt(result)
        return result

    monkeypatch.setattr(workloads, "place_circuit", corrupting)
    broken = _measure("paper_tables", groups, 0)
    assert not broken["correct"]
    assert broken["failed"] == 1
    assert broken["attempted"] == clean["attempted"]
