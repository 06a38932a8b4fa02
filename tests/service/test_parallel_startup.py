"""ParallelShardExecutor startup failures surface as typed errors."""

import multiprocessing
import os

import pytest

from repro.errors import RpcError
from repro.service import parallel


def _die_at_startup(*args):
    os._exit(3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_worker_dying_at_startup_raises_rpc_error(monkeypatch):
    """A worker that exits before reporting ready must not leak a bare
    ``EOFError`` from the pipe: start() stops the fleet and raises
    ``RpcError`` naming the worker and its exit code."""
    real_get_context = multiprocessing.get_context
    # Forked workers inherit the patched entry point; spawned ones would
    # re-import the real one.
    monkeypatch.setattr(parallel.multiprocessing, "get_context",
                        lambda method=None: real_get_context("fork"))
    monkeypatch.setattr(parallel, "_worker_main", _die_at_startup)
    executor = parallel.ParallelShardExecutor("keybackup", 2022, ops=1,
                                              shards=2, workers=2)
    with pytest.raises(RpcError,
                       match=r"worker 0 died during startup \(exit code 3\)"):
        executor.start(plane=None)  # the plane is only read once all are up
    # shutdown() ran: every worker was joined and every pipe closed.
    assert executor._processes == [] and executor._connections == []
