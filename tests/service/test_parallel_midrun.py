"""ParallelShardExecutor failures after startup surface as typed errors.

A worker that dies mid-run, or one that stops answering, must fail the next
request with a ``ReproError`` — never a bare ``BrokenPipeError`` or a hang.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.crypto import rng as crypto_rng
from repro.errors import RpcError
from repro.errors import TimeoutError as ReproTimeoutError
from repro.service import parallel
from repro.service.waves import run_batched
from repro.sim.drivers import make_driver

SEED = 2022
OPS = 8

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")


def _use_fork(monkeypatch):
    # Forked workers inherit patched entry points and skip the re-import a
    # spawned worker pays.
    real_get_context = multiprocessing.get_context
    monkeypatch.setattr(parallel.multiprocessing, "get_context",
                        lambda method=None: real_get_context("fork"))


def _silent_worker(app, seed, ops, shards, worker_index, conn):
    conn.send(("ready", worker_index, []))
    while conn.recv() is not None:  # swallow every request, answer none
        pass


@needs_fork
def test_worker_killed_mid_run_raises_rpc_error(monkeypatch):
    _use_fork(monkeypatch)
    with crypto_rng.deterministic(SEED):
        driver = make_driver("keybackup", SEED, OPS, shards=2,
                             session="workload")
        plane = driver.plane
        executor = parallel.ParallelShardExecutor("keybackup", SEED, OPS,
                                                  shards=2, workers=2)
        executor.start(plane)
        processes = list(executor._processes)
        try:
            plane.route_via_executor(executor)
            first = run_batched(plane, [driver.op(i) for i in range(4)])
            assert not [outcome for outcome in first
                        if isinstance(outcome, Exception)], first
            # Kill the worker that owns op 4's shard, so the next span
            # must talk to it.
            victim = plane.shard_for(driver.routing_key(4)) % executor.workers
            os.kill(processes[victim].pid, signal.SIGKILL)
            processes[victim].join(timeout=10.0)
            assert not processes[victim].is_alive()
            started = time.monotonic()
            with pytest.raises(RpcError, match=rf"parallel worker {victim} "
                               r"died .*\(exit code -9\)"):
                run_batched(plane, [driver.op(i) for i in range(4, OPS)])
            assert time.monotonic() - started < 10.0
        finally:
            plane.unroute()
            executor.shutdown()
    assert executor._processes == [] and executor._connections == []
    assert not any(process.is_alive() for process in processes)


@needs_fork
def test_silent_worker_raises_timeout(monkeypatch):
    _use_fork(monkeypatch)
    monkeypatch.setattr(parallel, "_worker_main", _silent_worker)
    monkeypatch.setattr(parallel, "_RESULT_TIMEOUT", 0.2)
    plane = make_driver("keybackup", SEED, 1).plane
    executor = parallel.ParallelShardExecutor("keybackup", SEED, 1,
                                              shards=1, workers=1)
    executor.start(plane)
    processes = list(executor._processes)
    try:
        address = plane.shards[0].domains[0].domain_id
        seq = executor.submit(address, "client", b"")
        started = time.monotonic()
        with pytest.raises(ReproTimeoutError, match="sent no response"):
            executor.result(seq)
        assert time.monotonic() - started < 10.0
    finally:
        executor.shutdown()
    assert not any(process.is_alive() for process in processes)
