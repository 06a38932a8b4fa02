"""Pinned load-harness output: same-seed runs must match across versions.

Same-seed replay is bit-identical within one version (see
``test_event_workload``); this module pins it *across* versions. Each case's
``WorkloadReport.to_dict()`` — minus the two wall-clock fields — is compared
to ``workload_pins.json``, so a refactor of the harness that moves any
simulated number, message count, failure, or autoscaler decision fails here.

Re-pin only for a deliberate behavior change, and say why in CHANGES.md::

    PYTHONPATH=src python tests/sim/test_workload_pinned.py
"""

import json
import os

import pytest

from repro.service.autoscaler import AutoscalerPolicy
from repro.sim.faults import CrashParty, DropFault, RecoverParty, ReshardService
from repro.sim.workload import MultiClientWorkload

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "workload_pins.json")
WALL_FIELDS = ("wall_seconds", "ops_per_sec")

AUTOSCALE_POLICY = AutoscalerPolicy(
    p99_high_s=0.03, queue_high=4, p99_low_s=0.02, queue_low=1,
    min_shards=2, max_shards=4, cooldown_s=0.1,
    breach_streak=1, clear_streak=2, sample_interval_s=0.05)

CONCURRENT = dict(concurrent=True, arrival_rate=20_000.0, service_time=0.0003)
FAULTS = dict(rules=(DropFault(probability=0.1),),
              events=(CrashParty(at_op=8, party="domain:1"),
                      RecoverParty(at_op=16, party="domain:1")))

CASES = {
    "unbatched": dict(num_clients=12, batched=False, service_time=0.0005),
    "batched": dict(num_clients=24, batch_size=8, service_time=0.0005),
    "concurrent": dict(num_clients=24, **CONCURRENT),
    "reshard-batched": dict(num_clients=24, batch_size=8, service_time=0.0005,
                            events=(ReshardService(at_op=12, shards=4),)),
    "reshard-concurrent": dict(num_clients=30,
                               events=(ReshardService(at_op=15, shards=4),),
                               **CONCURRENT),
    "autoscale": dict(num_clients=48, concurrent=True, arrival_rate=60.0,
                      arrival_phases=((8, 900.0), (32, 20.0)),
                      service_time=0.004, autoscale_policy=AUTOSCALE_POLICY),
    "faults-batched": dict(num_clients=24, batch_size=8, **FAULTS),
    "faults-unbatched": dict(num_clients=24, batched=False, **FAULTS),
}
APPS = ("keybackup", "prio")


def pinned_output(app: str, case: str) -> dict:
    """The run's report as plain JSON data, wall-clock fields removed."""
    report = MultiClientWorkload(app, seed=2022, shards=2,
                                 **CASES[case]).run().to_dict()
    for name in WALL_FIELDS:
        report.pop(name)
    # A JSON round trip turns int shard keys into strings, as in the pins.
    return json.loads(json.dumps(report, sort_keys=True))


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("app", APPS)
def test_workload_report_matches_pin(app, case):
    assert pinned_output(app, case) == load_pins()[f"{app}/{case}"]


def test_pins_cover_every_case():
    assert set(load_pins()) == {f"{app}/{case}" for app in APPS for case in CASES}


if __name__ == "__main__":
    pins = {f"{app}/{case}": pinned_output(app, case)
            for app in APPS for case in sorted(CASES)}
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
