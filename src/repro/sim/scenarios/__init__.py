"""The fault-injection scenario engine.

A *scenario* pairs one of the four end-to-end applications (key backup,
threshold signing, Prio-style aggregation, oblivious DNS) with a seeded
workload and a :class:`~repro.sim.faults.FaultPlan` — probabilistic message
faults plus scheduled partitions, crashes, TEE compromises, and malicious
updates. The :class:`ScenarioRunner` routes all application traffic over the
simulated network, drives the workload, and then checks the paper's safety
invariants:

* secrets stay secret while fewer than ``t`` trust domains are compromised,
* every domain's digest log remains append-only (and matches its attested head),
* auditors detect every unannounced update and every compromised TEE.

``docs/scenarios.md`` documents the fault taxonomy and how to add scenarios.
"""

from repro.sim.scenarios.spec import InvariantResult, Scenario, ScenarioReport
from repro.sim.scenarios.runner import ScenarioContext, ScenarioRunner
from repro.sim.scenarios.matrix import (
    audit_matrix,
    base_matrix,
    default_matrix,
    elastic_matrix,
    reshard_matrix,
    sharded_matrix,
)
from repro.sim.scenarios.pinned import pinned_matrix
from repro.sim.drivers import make_driver

__all__ = [
    "InvariantResult",
    "Scenario",
    "ScenarioReport",
    "ScenarioContext",
    "ScenarioRunner",
    "audit_matrix",
    "base_matrix",
    "default_matrix",
    "elastic_matrix",
    "sharded_matrix",
    "reshard_matrix",
    "pinned_matrix",
    "make_driver",
]
