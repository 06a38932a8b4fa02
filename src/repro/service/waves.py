"""Application operations written once, run inline, batched or on the loop.

An app op is a generator that yields :class:`Wave` objects — rounds of keyed
calls ``(key, domain_index, entry, params)`` — and is resumed with one
outcome per call: the result dict, the failed call's exception instance, or
``None`` for a call never sent. It returns its result or raises a
``ReproError``, and does its crypto before its first yield, so every
executor draws randomness in op order. A wave is *all-of* (``need=None``)
or *need-k* (walk the candidates in order until ``need`` are accepted).

:func:`run_inline` makes blocking invokes (all-of stops at the first failed
or refused call); :func:`run_batched` runs many ops in lockstep, one
op-major ``plane.scatter`` per round; :func:`run_event` runs one op as an
event-loop task. The last two send a need-k wave's first ``need``
candidates, then top it up each round with as many more as it is still
short. Only :func:`run_event` retries :class:`~repro.errors.KeyMigratingError`
(the others never run mid-reshard). See docs/architecture.md.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import KeyMigratingError, ReproError
from repro.net.eventloop import Sleep

__all__ = ["Wave", "run_inline", "run_batched", "run_event",
           "MIGRATION_RETRIES", "MIGRATION_RETRY_DELAY"]

# Bounded: a key pinned by a *failed* migration routes fine via its epoch
# override, so only an in-progress epoch transition ever costs a retry.
MIGRATION_RETRIES = 4
MIGRATION_RETRY_DELAY = 0.002  # simulated seconds between retries


class Wave:
    """Keyed calls an op needs answered; ``accept`` decides which results
    count (default: every successful one)."""

    __slots__ = ("calls", "need", "accept")

    def __init__(self, calls: list, need: int | None = None,
                 accept: Callable[[dict], bool] | None = None):
        self.calls = calls
        self.need = need
        self.accept = accept

    def ok(self, outcome) -> bool:
        """Whether ``outcome`` is an accepted result."""
        return (outcome is not None and not isinstance(outcome, Exception)
                and (self.accept is None or self.accept(outcome)))


class _Rounds:
    """A wave sent in rounds under the top-up rule."""

    __slots__ = ("wave", "outcomes", "sent", "accepted", "done")

    def __init__(self, wave: Wave):
        self.wave = wave
        self.outcomes: list = [None] * len(wave.calls)
        self.sent = 0
        self.accepted = 0
        self.done = not wave.calls

    def next_round(self) -> range:
        """Positions of the calls to send now."""
        need = self.wave.need
        start, size = self.sent, len(self.outcomes)
        self.sent = size if need is None else min(size, start + need - self.accepted)
        return range(start, self.sent)

    def record(self, span: range, results: list) -> None:
        """Take the outcomes of the calls at ``span``."""
        self.outcomes[span.start:span.stop] = results
        need = self.wave.need
        if need is not None:
            self.accepted += sum(map(self.wave.ok, results))
        self.done = (self.sent == len(self.outcomes)
                     or (need is not None and self.accepted >= need))


def run_inline(plane, op):
    """Run ``op`` with blocking invokes; returns its result.

    Each wave resolves its key's shard once, as a client walking one
    shard's domains would.
    """
    outcomes = None
    while True:
        try:
            wave = op.send(outcomes)
        except StopIteration as stop:
            return stop.value
        outcomes = [None] * len(wave.calls)
        accepted = 0
        routed_key = deployment = None
        for position, (key, domain_index, entry, params) in enumerate(wave.calls):
            try:
                if deployment is None or key != routed_key:
                    deployment, routed_key = plane.deployment_for(key), key
                outcome = deployment.invoke(domain_index, entry, params)
            except ReproError as exc:
                outcome = exc
            outcomes[position] = outcome
            if wave.ok(outcome):
                accepted += 1
                if accepted == wave.need:
                    break
            elif wave.need is None:
                break


def run_batched(plane, ops) -> list:
    """Run many ops in lockstep, one merged scatter per round.

    Returns one outcome per op, in order: its result, or the ``ReproError``
    it raised (failures are isolated per op).
    """
    results: list = []
    live: list = []  # (op index, op, rounds), in op order

    def advance(index: int, op, outcomes) -> None:
        try:
            wave = op.send(outcomes)
        except StopIteration as stop:
            results[index] = stop.value
        except ReproError as exc:
            results[index] = exc
        else:
            live.append((index, op, _Rounds(wave)))

    for index, op in enumerate(ops):
        results.append(None)
        advance(index, op, None)
    while live:
        current, live = live, []
        spans = []
        calls: list = []
        for _, _, rounds in current:
            span = rounds.next_round()
            spans.append(span)
            calls += rounds.wave.calls[span.start:span.stop]
        outcomes = plane.scatter(calls) if calls else []
        cursor = 0
        for (index, op, rounds), span in zip(current, spans):
            rounds.record(span, outcomes[cursor:cursor + len(span)])
            cursor += len(span)
            if rounds.done:
                advance(index, op, rounds.outcomes)
            else:
                live.append((index, op, rounds))
    return results


def run_event(plane, op, timeout: float = 0.25):
    """Run ``op`` as an event-loop task (a generator); returns its result.

    ``timeout`` bounds each round's wait; retransmission rides the RPC layer.
    """
    outcomes = None
    while True:
        try:
            wave = op.send(outcomes)
        except StopIteration as stop:
            return stop.value
        rounds = _Rounds(wave)
        while not rounds.done:
            span = rounds.next_round()
            rounds.record(span, (yield from _scatter_event(
                plane, wave.calls[span.start:span.stop], timeout)))
        outcomes = rounds.outcomes


def _scatter_event(plane, calls: list, timeout: float):
    """Scatter ``calls`` inside the event loop, retrying mid-migration keys."""
    outcomes: list = [None] * len(calls)
    pending = list(range(len(calls)))
    for attempt in range(MIGRATION_RETRIES + 1):
        if attempt:
            yield Sleep(MIGRATION_RETRY_DELAY)
        results = yield from plane.begin_scatter(
            [calls[slot] for slot in pending]).wait_event(timeout=timeout)
        for slot, result in zip(pending, results):
            outcomes[slot] = result
        pending = [slot for slot in pending
                   if isinstance(outcomes[slot], KeyMigratingError)]
        if not pending:
            break
    return outcomes
