"""The one harness under the load runs and the scenario engine.

:class:`~repro.sim.workload.MultiClientWorkload` and
:class:`~repro.sim.scenarios.runner.ScenarioRunner` both drive an app driver
(:mod:`repro.sim.drivers`) through an :class:`OpLoop`: :meth:`OpLoop.routed`
sets the plane up (network routing, service time, fault plan, epoch
publisher, and the :class:`ScenarioContext` that scheduled events act on),
one of the serial, batched or concurrent loops runs the driver's op
generators through the matching executor of :mod:`repro.service.waves`, and
:meth:`OpLoop.close` copies the tallies onto the harness's report (the
shared :class:`~repro.sim.metrics.RunReport` core). Both harnesses judge the
end state with the driver's ``finish()`` invariants; a scenario adds audits
and the generic safety invariants."""

from __future__ import annotations

import contextlib
import random

from repro.core.package import CodePackage
from repro.errors import ReproError, ReshardError
from repro.net.latency import geo_profile, lan_profile
from repro.net.transport import Network
from repro.service.waves import run_batched, run_event, run_inline
from repro.sim.adversary import ScheduledCompromise
from repro.sim.coverage import CoverageRecorder
from repro.sim.faults import (
    AutoscaleEnabled,
    CompromiseDomain,
    CrashParty,
    FaultPlan,
    HealLink,
    PartitionLink,
    RecoverParty,
    ReshardService,
    UnannouncedUpdate,
)
from repro.sim.metrics import summarize

__all__ = ["ScenarioContext", "OpLoop", "check_run_shape", "rate_for"]


class ScenarioContext:
    """Mutable state scheduled events act on during a run."""

    def __init__(self, network: Network, deployment, driver,
                 compromise_schedule: ScheduledCompromise, client_address: str,
                 plane=None, recorder: CoverageRecorder | None = None,
                 rpc_attempts: int = 3):
        self.network = network
        self.deployment = deployment
        self.driver = driver
        self.compromise_schedule = compromise_schedule
        self.client_address = client_address
        self.plane = plane
        self.recorder = recorder
        self.rpc_attempts = rpc_attempts
        self.current_op = 0
        self.unannounced_digests: list[bytes] = []
        self.reshard_reports: list = []
        self.reshard_errors: list[str] = []
        self.midrun_audits: list = []  # (op_index, ok, kinds) per AuditNow
        self.epoch_audits: list = []  # dict per bundle per AuditEpoch
        self.forged_epochs: list[int] = []  # artifact indices a forge rewrote
        self.autoscaler = None
        self._compromise_schedules = {0: compromise_schedule}
        self._epoch_rpc = None

    def resolve(self, party: str) -> str:
        """Map a scenario party name to a network address.

        ``"client"`` is the shared client endpoint; ``"domain:<i>"`` is trust
        domain ``i``'s RPC address (on the primary shard). Sharded scenarios
        additionally use ``"shard:<s>:domain:<i>"`` for shard ``s``'s domain
        ``i`` and ``"shard:<s>:client"`` for that shard's client endpoint
        (each shard sends from its own — migration traffic included).
        """
        if party == "client":
            return self.client_address
        if party.startswith("shard:"):
            if self.plane is None:
                raise ValueError(f"party {party!r} needs a sharded service")
            _, shard_index, rest = party.split(":", 2)
            shard_index = int(shard_index)
            if shard_index < len(self.plane.shards):
                shard_name = self.plane.shards[shard_index].name
            elif self.plane.spec is not None:
                # A shard a later ReshardService event will create: deployment
                # names are deterministic, so the fault can be laid down on
                # its addresses before the shard exists (e.g. a partition
                # that hits the migration's import path the moment it forms).
                shard_name = self.plane.spec.shard_name(shard_index)
            else:
                raise ValueError(f"party {party!r} names a nonexistent shard")
            if rest == "client":
                return f"{shard_name}-client"
            if rest.startswith("domain:"):
                return f"{shard_name}-domain-{int(rest.split(':', 1)[1])}"
            raise ValueError(f"unknown scenario party {party!r}")
        if party.startswith("domain:"):
            return self.deployment.domains[int(party.split(":", 1)[1])].domain_id
        raise ValueError(f"unknown scenario party {party!r}")

    def compromise(self, domain_index: int, shard_index: int = 0) -> None:
        """Exploit one domain's TEE at the current operation boundary."""
        schedule = self._compromise_schedules.get(shard_index)
        if schedule is None:
            if self.plane is None:
                raise ValueError("cannot compromise a shard without a plane")
            schedule = ScheduledCompromise(self.plane.shards[shard_index])
            self._compromise_schedules[shard_index] = schedule
        schedule.compromise(domain_index, at_op=self.current_op)

    def reshard(self, new_shard_count: int) -> None:
        """Grow the service plane to ``new_shard_count`` shards, live.

        A failed reshard is a *scenario outcome*, not a harness crash: a
        planning abort leaves the old epoch serving (nothing to record), and
        a mid-migration failure commits with the unmoved keys pinned — the
        coordinator attaches its report to the error. Either way the run
        continues and the invariants judge the resulting state.
        """
        self._transition(lambda plane: plane.reshard(new_shard_count))

    def finish_reshard(self) -> None:
        """Drain keys a faulted reshard left pinned to their old shards."""
        self._transition(lambda plane: plane.finish_reshard())

    def _transition(self, transition) -> None:
        if self.plane is None:
            raise ValueError("scenario deployment has no service plane to reshard")
        with self.phase("mid-migration"):
            try:
                self.reshard_reports.append(transition(self.plane))
            except ReshardError as exc:
                self.reshard_errors.append(str(exc))
                report = getattr(exc, "report", None)
                if report is not None:
                    self.reshard_reports.append(report)
        self._note_placement()

    def audit_now(self) -> None:
        """Run a full transparency audit at this operation boundary.

        Fired by :class:`~repro.sim.faults.AuditNow`: the probe races
        whatever faults are live right now, and its evidence is folded into
        the report's detected kinds (the end-of-run audit alone decides the
        pass/fail verdict).
        """
        with self.phase("mid-audit"):
            ok, kinds = self.driver.audit_outcome()
        self.midrun_audits.append((self.current_op, ok, tuple(sorted(kinds))))

    def audit_epochs(self) -> None:
        """Fetch and verify every published epoch bundle over the network.

        Fired by :class:`~repro.sim.faults.AuditEpoch`: the standalone
        auditor — its own trust domain, holding only the coordinator's and
        log's public keys — pulls each :class:`~repro.transparency.epochs.
        EpochArtifact` from the coordinator's bundle endpoint through the
        live fault rules and verifies it from the artifact alone. A fetch
        the network defeats is recorded (``fetched=False``), never raised;
        the end-of-run ``epoch-bundles-verify`` invariant independently
        verifies everything in-process.
        """
        from repro.errors import RpcError, TimeoutError
        from repro.transparency.auditor import AuditorService

        publisher = self._publisher()
        _, client = self._epoch_transport(publisher)
        with self.phase("mid-audit"):
            auditor = AuditorService(publisher.coordinator_key,
                                     publisher.log_key)
            try:
                count = int(client.call_with_retry("get_count", None,
                                                   attempts=self.rpc_attempts))
            except (RpcError, TimeoutError):
                # The network defeated even the enumeration; record the
                # starved probe so the report shows the audit ran dry.
                self.epoch_audits.append({"op": self.current_op, "index": -1,
                                          "forged": False, "fetched": False,
                                          "ok": False, "failing": []})
                return
            for index in range(count):
                entry = {"op": self.current_op, "index": index,
                         "forged": index in self.forged_epochs}
                try:
                    payload = client.call_with_retry(
                        "get_epoch", {"index": index},
                        attempts=self.rpc_attempts)
                except (RpcError, TimeoutError):
                    entry.update(fetched=False, ok=False, failing=[])
                else:
                    verdict = auditor.verify(payload)
                    entry.update(fetched=True, ok=verdict.ok,
                                 failing=verdict.failing(),
                                 epoch=verdict.epoch, kind=verdict.kind)
                self.epoch_audits.append(entry)

    def forge_epoch(self) -> None:
        """Rewrite the latest bundle's first migrator digest and republish.

        Fired by :class:`~repro.sim.faults.ForgeEpochDigest`: the
        compromised-coordinator attack the auditor must provably catch. The
        forged artifact's index is remembered so the invariants can demand
        its rejection (and name the digest-conservation check) while every
        honest bundle still verifies.
        """
        from repro.transparency.epochs import forge_migration_digest

        publisher = self._publisher()
        forge_migration_digest(publisher)
        self.forged_epochs.append(len(publisher.artifacts) - 1)

    def _epoch_transport(self, publisher):
        """The bundle endpoint (coordinator side) and the auditor's client.

        Built once per run: the coordinator serves ``get_epoch`` from its
        artifact list as plain data, and the auditor calls it from its own
        network address — bundle fetches ride the same adversarial send
        path, retries, and at-most-once dedup as every other RPC.
        """
        from repro.net.rpc import RpcClient, RpcServer

        if self._epoch_rpc is None:
            service = (self.plane.spec.name if self.plane.spec is not None
                       else "service")
            server = RpcServer(self.network.endpoint(f"{service}-epoch-log"),
                               name="epoch-log")
            server.register("get_count", lambda params: len(publisher.artifacts))
            server.register(
                "get_epoch",
                lambda params: publisher.artifacts[int(params["index"])].to_dict())
            client = RpcClient(self.network,
                               self.network.endpoint(f"{service}-epoch-auditor"),
                               server.endpoint.address)
            self._epoch_rpc = (server, client)
        return self._epoch_rpc

    def _publisher(self):
        publisher = getattr(self.plane, "epoch_publisher", None)
        if publisher is None:
            raise ValueError("scenario deployment publishes no epoch bundles")
        return publisher

    def phase(self, name: str, record_active: bool = True):
        """The coverage recorder's phase window (a no-op without one)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.phase(name, record_active=record_active)

    def _note_placement(self) -> None:
        if self.recorder is not None and self.plane is not None:
            self.recorder.set_shards(self.plane.ring.shard_count)

    def note_event(self, event) -> None:
        """Tell the coverage recorder what an applied event did.

        Stateful conditions (partition/crash/compromise — the unannounced
        update is developer-side compromise) stay *active* for coverage
        until the matching heal/recover fires; migration, audit, and
        placement effects are recorded inside the ``ctx`` methods the event
        called, so they need nothing here.
        """
        if self.recorder is None:
            return
        if isinstance(event, PartitionLink):
            self.recorder.activate("partition")
        elif isinstance(event, HealLink):
            self.recorder.deactivate("partition")
        elif isinstance(event, CrashParty):
            self.recorder.activate("crash")
        elif isinstance(event, RecoverParty):
            self.recorder.deactivate("crash")
        elif isinstance(event, (CompromiseDomain, UnannouncedUpdate)):
            self.recorder.activate("compromise")

    def enable_autoscaler(self, policy=None) -> None:
        """Hand the shard count to the elastic control loop, mid-run.

        Fired by :class:`~repro.sim.faults.AutoscaleEnabled` (the load
        harness's ``autoscale_policy`` calls it up front). The concurrent
        loop's monitor task starts sampling and deciding once this is set.
        """
        from repro.service.autoscaler import Autoscaler

        if self.plane is None:
            raise ValueError("scenario deployment has no service plane to scale")
        if self.autoscaler is None:
            self.autoscaler = Autoscaler(self.plane, policy)

    def push_unannounced_update(self, domain_index: int, version_suffix: str) -> None:
        """Sign and install an update on one domain without publishing it.

        The manifest is genuine (the attacker holds the developer key) and the
        framework accepts it — announcing it and logging its digest as the
        design requires — but the source never reaches the public registry or
        release log, so auditors must flag the deployment.
        """
        domain = self.deployment.domains[domain_index]
        current = domain.framework.current_package
        if current is None:
            raise ValueError("cannot push an update before any code is installed")
        evil = CodePackage(current.name, current.version + version_suffix,
                           current.language, current.source)
        sequence = domain.framework.state().sequence + 1
        manifest = self.deployment.developer.sign_update(evil, sequence)
        self.deployment.install_on_domain(domain_index, manifest, evil)
        self.unannounced_digests.append(evil.digest())


def check_run_shape(ops: int, *, shards: int, service_time: float,
                    concurrent: bool, arrival_rate: float,
                    arrival_phases: tuple, events: tuple) -> None:
    """Reject a run of ``ops`` ops that either harness would run wrongly.

    ``arrival_phases`` are ``(start_op, rate)`` pairs with ascending start
    ops. Every scheduled event must fall inside the run: one at
    ``at_op >= ops`` would never fire, and the run would pass without it.
    """
    if shards < 1:
        raise ValueError("a run needs at least one shard")
    if service_time < 0:
        raise ValueError("service_time cannot be negative")
    if concurrent and arrival_rate <= 0:
        raise ValueError("concurrent mode needs a positive arrival_rate")
    if arrival_phases and not concurrent:
        raise ValueError("arrival_phases only shape concurrent runs")
    previous = -1
    for start_op, rate in arrival_phases:
        if not 0 <= start_op < ops:
            raise ValueError(f"phase start op {start_op} falls outside the run")
        if start_op <= previous:
            raise ValueError("phase start ops must be ascending")
        if rate <= 0:
            raise ValueError("every phase rate must be positive")
        previous = start_op
    for event in events:
        if not 0 <= event.at_op < ops:
            raise ValueError(f"{event!r} falls outside the run's {ops} ops")


def rate_for(op_index: int, arrival_rate: float, arrival_phases=()) -> float:
    """The Poisson arrival rate in force at ``op_index``.

    ``arrival_phases`` are ``(start_op, rate)`` pairs with ascending start
    ops; before the first phase ``arrival_rate`` applies.
    """
    rate = arrival_rate
    for start_op, phase_rate in arrival_phases:
        if op_index >= start_op:
            rate = phase_rate
    return rate


class OpLoop:
    """Drives one driver's ops and tallies their outcomes.

    Without ``ctx`` and ``plan`` (see :meth:`routed`) the loop fires no
    events — parallel mode's span loop over worker pipes.
    ``count_failed_latency`` decides whether failed ops enter
    :attr:`latencies`, the samples a report summarizes and the autoscaler's
    p99 window. :attr:`reshard_segment` holds the load report's segment
    fields (see :meth:`fire`); it stays empty when no event resharded.
    """

    def __init__(self, driver, ctx: ScenarioContext | None = None,
                 plan: FaultPlan | None = None, seed: int = 0,
                 count_failed_latency: bool = True):
        self.driver = driver
        self.ctx = ctx
        self.plan = plan
        self.seed = seed
        self.count_failed_latency = count_failed_latency
        self.clock = driver.plane.clock
        self.reshard_segment: dict = {}
        self.succeeded = 0
        self.failed = 0
        self.failures: list[tuple[int, str]] = []  # (op index, error type name)
        self.latencies: list[tuple[int, float]] = []  # (op index, sim seconds)
        self.max_in_flight = 0
        self.in_flight_at_reshard = 0
        self.started = self.clock.now()

    @classmethod
    def routed(cls, driver, *, seed: int, rules: tuple = (), events: tuple = (),
               rpc_attempts: int = 3, service_time: float = 0.0,
               regions: tuple = (), recorder: CoverageRecorder | None = None,
               count_failed_latency: bool = True) -> "OpLoop":
        """Route ``driver``'s plane over a fresh simulated network.

        The fault plan draws from ``seed + 1`` and concurrent arrivals from
        ``seed + 2``, so a run replays bit-identically. ``recorder`` is told
        which rules fire and which phases events open.
        """
        plane = driver.plane
        deployment = driver.deployment
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=rpc_attempts)
        if regions:
            plane.apply_latency_map(network, geo_profile())
        if service_time > 0:
            plane.set_service_time(service_time)
        plan = FaultPlan(rules, events, seed=seed + 1)
        plan.install(network, recorder=recorder)
        if plane.spec is not None:
            # Every epoch transition the run performs leaves a signed,
            # self-contained transparency bundle behind (publishing is pure
            # computation — deterministic signatures, no network traffic —
            # so runs without transitions are byte-identical to before).
            from repro.transparency.epochs import EpochPublisher

            plane.epoch_publisher = EpochPublisher(plane.spec.name)
        ctx = ScenarioContext(network, deployment, driver,
                              ScheduledCompromise(deployment),
                              plane.client_address, plane=plane,
                              recorder=recorder, rpc_attempts=rpc_attempts)
        return cls(driver, ctx, plan, seed=seed,
                   count_failed_latency=count_failed_latency)

    def fire(self, op_index: int) -> None:
        """Apply everything scheduled before operation ``op_index``.

        The first event that runs an epoch transition, committed or failed,
        records :attr:`reshard_segment`: ops succeeded and sim time spent
        before it, the migration's own sim time, and its summary (with
        ``"error"`` when it failed).
        """
        ctx = self.ctx
        if ctx is None:
            return
        ctx.current_op = op_index
        for event in self.plan.events_at(op_index):
            before = self.clock.now()
            reports, errors = len(ctx.reshard_reports), len(ctx.reshard_errors)
            event.apply(ctx)
            ctx.note_event(event)
            if self.reshard_segment:
                continue
            summary = (ctx.reshard_reports[-1].to_dict()
                       if len(ctx.reshard_reports) > reports else {})
            if len(ctx.reshard_errors) > errors:
                summary["error"] = ctx.reshard_errors[-1]
            if not summary:
                continue  # the event ran no epoch transition
            # Ring coverage, not attached-shard count: a shrink that left a
            # retiring shard draining (pinned keys) has still committed its
            # epoch and serves at the new width.
            ring = ctx.plane.ring.shard_count
            target = event.shards if isinstance(event, ReshardService) else ring
            self.reshard_segment = {
                "resharded": ring == target,
                "reshard_to": target,
                "ops_before_reshard": self.succeeded,
                "sim_seconds_before_reshard": before - self.started,
                "reshard_sim_seconds": self.clock.now() - before,
                "reshard_summary": summary,
            }

    def record(self, op_index: int, error: Exception | None,
               latency: float) -> None:
        """Tally one op's outcome and, per policy, its latency."""
        if error is None:
            self.succeeded += 1
        else:
            self.failed += 1
            self.failures.append((op_index, type(error).__name__))
        if error is None or self.count_failed_latency:
            self.latencies.append((op_index, latency))

    def run_serial(self, ops: int) -> None:
        """One op at a time, each run inline with blocking invokes."""
        for op_index in range(ops):
            self.fire(op_index)
            started = self.clock.now()
            error = None
            try:
                run_inline(self.driver.plane, self.driver.op(op_index))
            except ReproError as exc:
                error = exc
            self.record(op_index, error, self.clock.now() - started)

    def run_spans(self, ops: int, batch_size: int) -> None:
        """Spans of ``batch_size`` ops, each span run batched in lockstep.

        Scheduled events fire at span boundaries (every event due inside
        the span fires before it starts), and each op carries its span's
        completion latency.
        """
        for start in range(0, ops, batch_size):
            count = min(batch_size, ops - start)
            for op_index in range(start, start + count):
                self.fire(op_index)
            started = self.clock.now()
            outcomes = run_batched(self.driver.plane, [
                self.driver.op(op_index)
                for op_index in range(start, start + count)])
            latency = self.clock.now() - started
            for offset, outcome in enumerate(outcomes):
                self.record(start + offset,
                            outcome if isinstance(outcome, Exception) else None,
                            latency)

    def run_concurrent(self, ops: int, arrival_rate: float,
                       arrival_phases: tuple = (), timeout: float = 0.25) -> None:
        """Every op as its own task on the discrete-event loop.

        Ops arrive at seeded Poisson times and overlap for real; scheduled
        events — a live reshard included — fire the moment their target op
        *starts*, with every earlier, unfinished op in flight. An enabled
        autoscaler (up front, or by an
        :class:`~repro.sim.faults.AutoscaleEnabled` event) gets a monitor
        task. ``timeout`` bounds each wave of an op's requests.
        """
        from repro.net.eventloop import EventLoop

        ctx = self.ctx
        recorder = ctx.recorder
        loop = EventLoop(ctx.network)
        arrivals = random.Random(self.seed + 2)
        progress = {"in_flight": 0, "done": 0}

        def task(op_index: int):
            reshards_before = len(ctx.reshard_reports)
            count_at_start = progress["in_flight"]
            self.fire(op_index)
            if len(ctx.reshard_reports) > reshards_before:
                self.in_flight_at_reshard = count_at_start
            progress["in_flight"] += 1
            self.max_in_flight = max(self.max_in_flight, progress["in_flight"])
            if recorder is not None and progress["in_flight"] >= 2:
                recorder.batch_active(True)
            started = self.clock.now()
            error = None
            try:
                yield from run_event(self.driver.plane,
                                     self.driver.op(op_index), timeout)
            except ReproError as exc:
                error = exc
            finally:
                progress["in_flight"] -= 1
                progress["done"] += 1
                if recorder is not None and progress["in_flight"] < 2:
                    recorder.batch_active(False)
            self.record(op_index, error, self.clock.now() - started)

        if ctx.autoscaler is not None or any(
                isinstance(event, AutoscaleEnabled) for event in self.plan.events):
            loop.spawn(self._autoscale_monitor(ops, progress), name="autoscaler")
        arrival_offset = 0.0
        for op_index in range(ops):
            arrival_offset += arrivals.expovariate(
                rate_for(op_index, arrival_rate, arrival_phases))
            loop.spawn(task(op_index), name=f"op-{op_index}",
                       start_at=self.started + arrival_offset)
        loop.run()
        if ctx.autoscaler is not None:
            # The autoscaler's transitions are epoch transitions like any
            # other: fold them into the run's reshard record.
            ctx.reshard_reports.extend(ctx.autoscaler.reshard_reports)

    def _autoscale_monitor(self, ops: int, progress: dict):
        """Sample the plane at the policy cadence while ops remain.

        Idles cheaply until an autoscaler is enabled (an AutoscaleEnabled
        event may sit at any op boundary); the p99 window is every latency
        sample recorded since the previous sample, so a run can reconstruct
        exactly what the autoscaler saw.
        """
        from repro.net.eventloop import Sleep
        from repro.service.autoscaler import percentile

        ctx = self.ctx
        recorder = ctx.recorder
        window_start = 0
        while progress["done"] < ops:
            scaler = ctx.autoscaler
            yield Sleep(scaler.policy.sample_interval_s
                        if scaler is not None else 0.05)
            window = [latency for _, latency in self.latencies[window_start:]]
            window_start = len(self.latencies)
            if scaler is None:
                continue
            decisions_before = len(scaler.decisions)
            shards_before = ctx.plane.ring.shard_count
            # Per-sample observes enter the window without charging the
            # active faults to it — otherwise the monitor's mere cadence
            # would claim mid-autoscale coverage every run. Transitions
            # the observe fires (and the migration traffic they push)
            # are recorded under the phase.
            with ctx.phase("mid-autoscale", record_active=False):
                scaler.observe(p99_s=percentile(window, 0.99))
            if recorder is not None:
                if any(d.fired for d in scaler.decisions[decisions_before:]):
                    recorder.record_active_under("mid-autoscale")
                if ctx.plane.ring.shard_count != shards_before:
                    recorder.set_shards(ctx.plane.ring.shard_count)

    def close(self, report) -> None:
        """Fill ``report``'s :class:`~repro.sim.metrics.RunReport` core,
        then restore in-process invocation on the plane. A loop without
        ``ctx`` (parallel mode) has no simulated network or clock, so it
        leaves the latency and transport figures unset."""
        plane = self.driver.plane
        report.succeeded = self.succeeded
        report.failed = self.failed
        report.failures = list(self.failures)
        report.max_in_flight = self.max_in_flight
        report.in_flight_at_reshard = self.in_flight_at_reshard
        report.retries = plane.rpc_retry_total()
        report.final_shards = plane.ring.shard_count
        if self.ctx is not None:
            if self.latencies:
                report.latency = summarize(
                    [latency for _, latency in self.latencies])
            report.shard_queue_depth = plane.max_queue_depth_per_shard()
            stats = self.ctx.network.stats
            report.messages_sent = stats.messages_sent
            report.messages_delivered = stats.messages_delivered
            report.messages_dropped = stats.messages_dropped
            report.messages_duplicated = stats.messages_duplicated
            if self.ctx.autoscaler is not None:
                report.autoscale_decisions = [
                    decision.to_dict() for decision in self.ctx.autoscaler.decisions]
        plane.unroute()
