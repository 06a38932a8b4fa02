"""Every execution mode leaves every app in the same end state.

The serial, batched and concurrent loops run one op generator per op through
three different executors; on a clean network they must agree on the final
application state of every trust domain, not just on success counts.
"""

import pytest

from repro.crypto import rng as crypto_rng
from repro.sim.drivers import DRIVERS, make_driver
from repro.sim.harness import OpLoop
from repro.wire.codec import canonical_digest

SEED = 2022
OPS = 16


def _state(domain):
    state = domain.framework.application_state()
    if state is not None and "seen_queries" in state:
        # The ODoH proxy records ciphertext lengths in arrival order, and
        # concurrent ops arrive interleaved.
        state = dict(state, seen_queries=sorted(state["seen_queries"]))
    return state


def end_state(app: str, mode: str) -> bytes:
    with crypto_rng.deterministic(SEED):
        driver = make_driver(app, SEED, OPS, shards=2)
        run = OpLoop.routed(driver, seed=SEED)
        if mode == "serial":
            run.run_serial(OPS)
        elif mode == "batched":
            run.run_spans(OPS, 8)
        else:
            run.run_concurrent(OPS, arrival_rate=2000.0)
        assert (run.succeeded, run.failed) == (OPS, 0), run.failures
        return canonical_digest([_state(domain)
                                 for shard in driver.plane.shards
                                 for domain in shard.domains])


@pytest.mark.parametrize("app", sorted(DRIVERS))
def test_serial_batched_and_concurrent_agree(app):
    serial = end_state(app, "serial")
    assert end_state(app, "batched") == serial
    assert end_state(app, "concurrent") == serial
