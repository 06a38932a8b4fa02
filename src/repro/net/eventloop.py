"""A discrete-event scheduler: genuinely concurrent tasks over the network.

The synchronous model (``Network.run_until_idle``) can only *fake* request
concurrency: every payload must be on the wire before the first pump, and
nothing new can enter the network while it drains. This module adds the real
thing — an event loop over the existing :class:`~repro.net.clock.SimClock`
and the transport's delivery-time heap, with simulated tasks that yield on
send/receive instead of pumping:

* a :class:`SimTask` wraps a plain Python generator. The generator yields
  *commands* — :class:`Sleep` to advance simulated time, :class:`WaitBatch`
  to block on an in-flight :class:`~repro.net.rpc.PendingRpcBatch` — and is
  resumed with a wake reason (``"complete"``, ``"timeout"``, ``"elapsed"``,
  or ``"idle"``);
* the :class:`EventLoop` interleaves network deliveries and task timers in
  timestamp order, so hundreds of requests are concurrently in flight: new
  arrivals start while earlier responses are still queued behind a server's
  serial service queue, which is what makes queueing, head-of-line blocking,
  and p99-under-load measurable at all;
* responses are routed to waiting tasks by request id through a delivery
  observer, so a payload wakes exactly the task whose batch it answers — no
  O(tasks) broadcast per delivery. The observer finds the owning batch in its
  endpoint's ``rpc_batches`` table, the same id -> batch table the
  synchronous drain files into (see :mod:`repro.net.rpc`);
* everything is deterministic under a fixed seed: the ready queue is FIFO,
  timers tie-break by creation order, and the optional event ``trace``
  records every scheduling decision so two identically seeded runs can be
  compared event by event.

Synchronous code composes with the loop: a task may call code that pumps
``run_until_idle`` internally (e.g. a live reshard's quiesce barrier); the
delivery observer keeps batch bookkeeping correct no matter which driver
performed a delivery, and affected tasks simply find their responses already
waiting when control returns to the loop.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import DecodingError, SimulationError
from repro.net.transport import Message, Network
from repro.wire.codec import decode
from repro.wire.framing import split_frames

__all__ = ["Sleep", "WaitBatch", "SimTask", "EventLoop"]


@dataclass(frozen=True)
class Sleep:
    """Yielded by a task to advance simulated time; resumed with ``"elapsed"``."""

    seconds: float


@dataclass
class WaitBatch:
    """Yielded by a task to block on an in-flight RPC batch.

    ``batch`` is a :class:`~repro.net.rpc.PendingRpcBatch`: the delivery
    observer finds it by request id in its endpoint's ``rpc_batches`` table.
    The task resumes with ``"complete"`` once every pending response arrived,
    ``"timeout"`` after ``timeout`` simulated seconds, or ``"idle"`` if the
    whole simulation ran out of events first (lost traffic, no timers) — the
    last two are the task's cue to retransmit.
    """

    batch: object
    timeout: float = 0.25


class SimTask:
    """One simulated task: a generator plus its scheduling state."""

    def __init__(self, name: str, gen: Generator):
        self.name = name
        self.gen = gen
        self.done = False
        self.result = None
        # Bumped on every wake; timers remember the generation they were
        # scheduled under, so a stale timer (its task was woken by something
        # else first) is recognized and discarded instead of double-waking.
        self.wake_generation = 0
        self.waiting_batch = None  # the WaitBatch.batch currently blocking us


class EventLoop:
    """Runs simulated tasks against one :class:`~repro.net.transport.Network`.

    Args:
        network: the transport whose delivery queue drives the simulation.
        max_events: hard budget on scheduling events; exceeding it raises
            :class:`~repro.errors.SimulationError` instead of spinning forever
            (a non-quiescing loop must fail fast, not hang CI).
        trace: record a ``(sim_time, kind, detail)`` tuple per scheduling
            event in :attr:`trace` — the deterministic-replay property tests
            compare these traces across identically seeded runs.
    """

    def __init__(self, network: Network, max_events: int = 1_000_000,
                 trace: bool = False):
        self.network = network
        self.clock = network.clock
        self.max_events = max_events
        self.trace: list | None = [] if trace else None
        self.tasks: list[SimTask] = []
        self._ready: deque = deque()  # (task, wake value)
        self._timers: list = []  # heap of (at, seq, task, generation, kind)
        self._seq = itertools.count()
        # batch -> the task blocked on it, for wake-ups. Which batch a
        # response belongs to is the endpoint's rpc_batches table's business.
        self._waiting: dict[object, SimTask] = {}
        self._events = 0
        network.add_delivery_observer(self._on_delivery)

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str | None = None,
              start_at: float | None = None) -> SimTask:
        """Register a task; it starts immediately or at ``start_at`` sim time."""
        task = SimTask(name or f"task-{len(self.tasks)}", gen)
        self.tasks.append(task)
        self._trace("spawn", task.name)
        if start_at is None or start_at <= self.clock.now():
            self._ready.append((task, None))
        else:
            self._schedule(task, start_at, "start")
        return task

    def run(self) -> int:
        """Run until every task finished (or timed out its retries).

        Returns the number of scheduling events processed. Raises
        :class:`~repro.errors.SimulationError` when ``max_events`` is
        exceeded — the fail-fast guard against a non-quiescing loop.
        """
        while True:
            while self._ready:
                task, value = self._ready.popleft()
                if task.done:
                    continue
                self._step(task, value)
            if not self._advance():
                return self._events

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _step(self, task: SimTask, value) -> None:
        self._count_event()
        try:
            command = task.gen.send(value)
        except StopIteration as stop:
            task.done = True
            task.result = stop.value
            self._trace("done", task.name)
            return
        if isinstance(command, Sleep):
            self._trace("sleep", task.name)
            self._schedule(task, self.clock.now() + max(0.0, command.seconds),
                           "sleep")
        elif isinstance(command, WaitBatch):
            self._register_wait(task, command)
        else:
            raise SimulationError(
                f"task {task.name} yielded unsupported command {command!r}")

    def _schedule(self, task: SimTask, at: float, kind: str) -> None:
        heapq.heappush(self._timers,
                       (at, next(self._seq), task, task.wake_generation, kind))

    def _wake(self, task: SimTask, value) -> None:
        task.wake_generation += 1  # invalidates any outstanding timer
        task.waiting_batch = None
        self._ready.append((task, value))

    def _register_wait(self, task: SimTask, command: WaitBatch) -> None:
        batch = command.batch
        client = batch.client
        # Responses that landed before this wait (another task's delivery, or
        # a synchronous pump) are parked in the shared inbox; drain them
        # first so a satisfied batch never blocks.
        if batch.pending:
            client._drain_inbox(batch.pending, batch.found)
        if not batch.pending:
            self._trace("ready", task.name)
            self._wake(task, "complete")
            return
        self._waiting[batch] = task
        task.waiting_batch = batch
        self._trace("wait", task.name)
        self._schedule(task, self.clock.now() + max(0.0, command.timeout),
                       "timeout")

    def _deregister(self, task: SimTask) -> None:
        if task.waiting_batch is not None:
            self._waiting.pop(task.waiting_batch, None)
            task.waiting_batch = None

    # ------------------------------------------------------------------
    # Event sources: deliveries and timers
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Process the next event in timestamp order; False when fully idle."""
        next_delivery = self.network.next_delivery_at()
        next_timer = self._next_timer_at()
        if next_delivery is None and next_timer is None:
            return self._wake_idle()
        if next_timer is None or (next_delivery is not None
                                  and next_delivery <= next_timer):
            self._count_event()
            message = self.network.deliver_next()
            if message is not None:
                self._trace("deliver",
                            f"{message.source}->{message.destination}")
            return True
        return self._fire_timer()

    def _next_timer_at(self) -> Optional[float]:
        while self._timers:
            at, _, task, generation, _ = self._timers[0]
            if task.done or generation != task.wake_generation:
                heapq.heappop(self._timers)  # stale: task was woken elsewhere
                continue
            return at
        return None

    def _fire_timer(self) -> bool:
        at, _, task, _, kind = heapq.heappop(self._timers)
        self.clock.advance_to(at)
        self._count_event()
        if kind == "timeout":
            self._deregister(task)
            self._trace("timeout", task.name)
            self._wake(task, "timeout")
        elif kind == "start":
            self._trace("start", task.name)
            self._wake(task, None)
        else:
            self._trace("elapsed", task.name)
            self._wake(task, "elapsed")
        return True

    def _wake_idle(self) -> bool:
        """No deliveries, no timers: wake batch-waiters so they retransmit."""
        woke = False
        for task in self.tasks:
            if not task.done and task.waiting_batch is not None:
                self._deregister(task)
                self._trace("idle", task.name)
                self._wake(task, "idle")
                woke = True
        return woke

    def _on_delivery(self, message: Message) -> None:
        """File a delivered payload's response frames into their batches.

        Runs for *every* delivery on the network (the transport's delivery
        observer), whichever driver performed it, while any task waits on a
        batch. Each frame whose request id an in-flight batch on the
        receiving endpoint owns goes straight into that batch's ``found`` —
        and if every frame is claimed, the parked message is removed so the
        synchronous drain path never re-decodes it. A task wakes the moment
        the batch it waits on has no pending id left.
        """
        if not self._waiting:
            return
        endpoint = self.network._endpoints.get(message.destination)
        batches = getattr(endpoint, "rpc_batches", None)
        if not batches:
            return
        try:
            frames = split_frames(message.payload)
        except DecodingError:
            return
        completed_tasks: list[SimTask] = []
        claimed = 0
        for frame in frames:
            try:
                response = decode(frame)
            except DecodingError:
                continue
            request_id = (response.get("id")
                          if isinstance(response, dict) else None)
            batch = batches.get(request_id)
            if batch is None:
                continue
            batch.file(request_id, response)
            claimed += 1
            if not batch.pending:
                task = self._waiting.pop(batch, None)
                if task is not None and not task.done:
                    completed_tasks.append(task)
        if (claimed == len(frames) and endpoint.inbox
                and endpoint.inbox[-1] is message):
            endpoint.inbox.pop()
        for task in completed_tasks:
            self._trace("ready", task.name)
            self._wake(task, "complete")

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _count_event(self) -> None:
        self._events += 1
        if self._events > self.max_events:
            raise SimulationError(
                f"event loop exceeded {self.max_events} events without "
                "quiescing (runaway retransmission or a task that never ends)")

    def _trace(self, kind: str, detail: str) -> None:
        if self.trace is not None:
            self.trace.append((round(self.clock.now(), 9), kind, detail))
