"""The scenario runner: faults in, metrics and invariant verdicts out.

The runner composes everything the engine needs for one scenario:

1. build the application's driver (:mod:`repro.sim.drivers`) — its deployment
   through the normal (fault-free) setup path, across ``scenario.shards``
   service-plane shards when sharded;
2. route it through :meth:`~repro.sim.harness.OpLoop.routed`: every trust
   domain of every shard attached to a simulated network carrying *all
   application traffic* (framed RPC bytes, at-most-once servers, client
   retries), with the scenario's probabilistic fault rules on the send path;
3. drive the seeded workload through the shared serial or concurrent op
   loop, applying scheduled events (partitions, crashes, compromises,
   malicious updates, live reshards, audits) at operation boundaries and
   recording per-operation simulated latency;
4. check the safety invariants: digest logs stayed append-only, audits end in
   the expected verdict (detecting every unannounced update and compromised
   TEE), epoch transitions committed with no key left unroutable, and the
   application-specific secrecy/conservation properties held.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.sim.coverage import CoverageRecorder
from repro.sim.drivers import make_driver
from repro.sim.harness import OpLoop, ScenarioContext
from repro.sim.scenarios.spec import InvariantResult, Scenario, ScenarioReport
from repro.transparency.log import DigestLog

__all__ = ["ScenarioContext", "ScenarioRunner"]


class ScenarioRunner:
    """Runs one :class:`~repro.sim.scenarios.spec.Scenario` end to end."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def run(self) -> ScenarioReport:
        """Execute the scenario and return its report.

        Crypto randomness is routed through a DRBG seeded from the scenario
        seed for the whole run (see :mod:`repro.crypto.rng`), so a scenario
        replays bit-identically — faults, share polynomials, padding, and
        the latencies their byte lengths produce included.
        """
        from repro.crypto import rng as crypto_rng

        with crypto_rng.deterministic(self.scenario.seed):
            return self._run()

    def _run(self) -> ScenarioReport:
        scenario = self.scenario
        driver = make_driver(scenario.app, scenario.seed, scenario.ops,
                             shards=scenario.shards, regions=scenario.regions)
        plane = driver.plane
        recorder = CoverageRecorder(scenario.app, layout=scenario.layout,
                                    shards=scenario.shards)
        run = OpLoop.routed(driver, seed=scenario.seed, rules=scenario.rules,
                            events=scenario.events,
                            rpc_attempts=scenario.rpc_attempts,
                            service_time=scenario.service_time,
                            regions=scenario.regions, recorder=recorder)
        ctx = run.ctx

        log_baseline = {
            domain.domain_id: domain.framework.log_export()
            for shard in plane.shards for domain in shard.domains
        }
        report = ScenarioReport(scenario=scenario)
        if scenario.concurrent:
            run.run_concurrent(scenario.ops, scenario.arrival_rate,
                               scenario.arrival_phases)
        else:
            run.run_serial(scenario.ops)
        run.close(report)

        # Collected from the live fleet, not a pre-run snapshot, so servers
        # of shards grown by a mid-run reshard are counted too.
        report.duplicates_answered = plane.duplicates_answered_total()
        report.sim_elapsed_s = run.clock.now() - run.started
        report.reshards = list(ctx.reshard_reports)

        report.audit_ok, kinds = driver.audit_outcome()
        # Mid-run AuditNow probes contribute evidence kinds (an auditor that
        # caught the fault while it was live), never the final verdict.
        for _op, _ok, midrun_kinds in ctx.midrun_audits:
            kinds = set(kinds) | set(midrun_kinds)
        # The epoch auditor's verdicts are evidence too: a forged bundle it
        # rejected — mid-run over the network or end-of-run in-process — is
        # detected misbehavior with a verifiable artifact behind it.
        bundle_verdicts = self._verify_epoch_bundles(ctx)
        if any(verdict["forged"] and not verdict["ok"]
               for verdict in bundle_verdicts):
            kinds = set(kinds) | {"forged-epoch"}
        report.detected_kinds = tuple(sorted(kinds))
        report.epoch_audits = list(ctx.epoch_audits)
        report.invariants = self._generic_invariants(ctx, report, log_baseline,
                                                     bundle_verdicts)
        report.invariants.extend(driver.finish(ctx.reshard_reports))
        report.coverage_cells = frozenset(recorder.cells)
        return report

    # ------------------------------------------------------------------
    # Generic invariants (checked for every app)
    # ------------------------------------------------------------------
    def _generic_invariants(self, ctx: ScenarioContext, report: ScenarioReport,
                            log_baseline: dict,
                            bundle_verdicts: list) -> list[InvariantResult]:
        invariants = [self._append_only_invariant(ctx, log_baseline),
                      self._conservation_invariant(ctx),
                      self._audit_invariant(report)]
        if ctx.unannounced_digests:
            invariants.append(self._unannounced_update_invariant(ctx, report))
        if ctx.reshard_reports:
            invariants.append(self._reshard_invariant(ctx))
        if bundle_verdicts:
            invariants.append(self._epoch_bundle_invariant(ctx, bundle_verdicts))
        return invariants

    @staticmethod
    def _verify_epoch_bundles(ctx: ScenarioContext) -> list:
        """End-of-run verdict for every published epoch bundle, in-process.

        The standalone auditor replays each artifact from scratch — the
        fault-free ground truth a mid-run :class:`~repro.sim.faults.
        AuditEpoch` probe (whose fetches the network may defeat) is judged
        against. Empty when the run published nothing.
        """
        from repro.transparency.auditor import AuditorService

        publisher = getattr(ctx.plane, "epoch_publisher", None)
        if publisher is None or not publisher.artifacts:
            return []
        auditor = AuditorService(publisher.coordinator_key, publisher.log_key)
        verdicts = []
        for index, artifact in enumerate(publisher.artifacts):
            verdict = auditor.verify(artifact)
            verdicts.append({"index": index, "ok": verdict.ok,
                             "failing": verdict.failing(),
                             "forged": index in ctx.forged_epochs})
        return verdicts

    def _append_only_invariant(self, ctx: ScenarioContext, baseline: dict) -> InvariantResult:
        """No domain's digest log lost or rewrote history during the run.

        Shards added by a mid-run reshard are checked against an empty
        baseline — their whole history happened during the run.
        """
        domains = [domain for shard in ctx.plane.shards for domain in shard.domains]
        for domain in domains:
            exported = domain.framework.log_export()
            before = baseline.get(domain.domain_id, [])
            if len(exported) < len(before):
                return InvariantResult("digest-log-append-only", False,
                                       f"{domain.domain_id} truncated its log")
            if not DigestLog.views_consistent(before, exported):
                return InvariantResult("digest-log-append-only", False,
                                       f"{domain.domain_id} rewrote logged history")
            try:
                DigestLog.verify_export(exported, domain.framework.log_head())
            except ReproError as exc:
                return InvariantResult("digest-log-append-only", False,
                                       f"{domain.domain_id}: {exc}")
        return InvariantResult("digest-log-append-only", True,
                               f"{len(domains)} domain logs verified "
                               "against their attested heads")

    def _conservation_invariant(self, ctx: ScenarioContext) -> InvariantResult:
        """Transport accounting stayed exact across the whole run.

        Every message that entered the network — original sends and
        fault-injected duplicates alike — must be counted as exactly one
        delivery or one drop (plus whatever is still queued when the run
        ends, e.g. a delayed duplicate nobody waited for). A leak here means
        some network path forgot to record its outcome, and every
        loss/latency number in the report becomes untrustworthy.
        """
        stats = ctx.network.stats
        pending = ctx.network.pending()
        return InvariantResult("network-conserves-messages",
                               stats.conserved(pending=pending),
                               stats.conservation_detail(pending=pending))

    def _audit_invariant(self, report: ScenarioReport) -> InvariantResult:
        scenario = self.scenario
        if report.audit_ok != scenario.expect_audit_ok:
            expected = "pass" if scenario.expect_audit_ok else "fail"
            return InvariantResult("audit-ends-as-expected", False,
                                   f"audit was expected to {expected} but did not")
        missing = set(scenario.expect_detection_kinds) - set(report.detected_kinds)
        if missing:
            return InvariantResult("audit-ends-as-expected", False,
                                   f"audit produced no {sorted(missing)} evidence")
        detail = ("clean deployment passed its audit" if scenario.expect_audit_ok
                  else "misbehavior was detected with verifiable evidence")
        return InvariantResult("audit-ends-as-expected", True, detail)

    def _unannounced_update_invariant(self, ctx: ScenarioContext,
                                      report: ScenarioReport) -> InvariantResult:
        """Every unannounced update left evidence and failed the audit."""
        if report.audit_ok:
            return InvariantResult("unannounced-update-detected", False,
                                   "audit passed despite an unpublished update")
        logged = {
            bytes(entry["code_digest"])
            for shard in ctx.plane.shards
            for domain in shard.domains
            for entry in domain.framework.log_export()
        }
        missing = [digest for digest in ctx.unannounced_digests if digest not in logged]
        if missing:
            return InvariantResult("unannounced-update-detected", False,
                                   "an installed update left no digest-log entry")
        return InvariantResult(
            "unannounced-update-detected", True,
            f"{len(ctx.unannounced_digests)} unpublished update(s) appear in the "
            "tamper-evident logs and failed the audit",
        )

    def _reshard_invariant(self, ctx: ScenarioContext) -> InvariantResult:
        """Every epoch transition committed and left no key unroutable.

        In either direction: the ring may never cover more shards than
        exist (keys would route into the void); a shard attached *beyond*
        the ring (a shrink still draining) is legitimate only while pinned
        or stale records justify keeping it; no key may still be marked
        mid-migration; and any key pinned by an epoch override must point
        at an attached shard — i.e. requests during and after every
        transition either routed correctly or failed safely, never
        misrouted.
        """
        plane = ctx.plane
        if plane.is_migrating:
            return InvariantResult("reshard-epoch-committed", False,
                                   "keys left mid-migration after the run")
        if plane.ring.shard_count > len(plane.shards):
            return InvariantResult(
                "reshard-epoch-committed", False,
                f"ring covers {plane.ring.shard_count} shards but only "
                f"{len(plane.shards)} exist")
        draining = plane.draining_shards()
        if draining:
            referenced = ({shard for _, shard in plane.pending_migrations()}
                          | {shard for _, shard in plane.pending_cleanups()})
            try:
                residual = any(plane.migrator is not None
                               and plane.migrator.residue(plane, shard)
                               for shard in draining)
            except Exception:
                residual = True  # unreachable shard: draining is justified
            if not referenced & set(draining) and not residual:
                return InvariantResult(
                    "reshard-epoch-committed", False,
                    f"shards {draining} left draining with no pinned, "
                    "stale, or residual records justifying them")
        # Each committed transition stamps its report with the epoch it
        # produced (drain reports reuse the then-current epoch), so the
        # distinct epochs recorded must all have been reached — grows and
        # shrinks alike.
        epochs = {reshard.epoch for reshard in ctx.reshard_reports
                  if reshard.epoch > 0}
        if plane.epoch < len(epochs):
            return InvariantResult("reshard-epoch-committed", False,
                                   f"{len(epochs)} epoch transitions were "
                                   f"recorded but the epoch only advanced "
                                   f"to {plane.epoch}")
        for key, shard_index in plane.pending_migrations():
            if not 0 <= shard_index < len(plane.shards):
                return InvariantResult(
                    "reshard-epoch-committed", False,
                    f"key {key!r} pinned to nonexistent shard {shard_index}")
        pending = plane.pending_migration_keys
        stale = len(plane.pending_cleanups())
        detail = (f"epoch {plane.epoch} committed; ring covers "
                  f"{plane.ring.shard_count} of {len(plane.shards)} "
                  "attached shards")
        if draining:
            detail += f"; shards {draining} still draining"
        if pending:
            detail += f"; {pending} keys pinned to old shards (routed, not lost)"
        if stale:
            detail += f"; {stale} moved keys await source cleanup"
        return InvariantResult("reshard-epoch-committed", True, detail)

    def _epoch_bundle_invariant(self, ctx: ScenarioContext,
                                verdicts: list) -> InvariantResult:
        """Every honest epoch bundle verifies from the artifact alone, and
        every forged one is provably rejected on digest conservation."""
        for verdict in verdicts:
            index = verdict["index"]
            if verdict["forged"]:
                if verdict["ok"]:
                    return InvariantResult(
                        "epoch-bundles-verify", False,
                        f"forged bundle {index} passed verification")
                if "digest-conservation" not in verdict["failing"]:
                    return InvariantResult(
                        "epoch-bundles-verify", False,
                        f"forged bundle {index} was rejected but not on "
                        f"digest conservation ({verdict['failing']})")
            elif not verdict["ok"]:
                return InvariantResult(
                    "epoch-bundles-verify", False,
                    f"honest bundle {index} failed verification "
                    f"({verdict['failing']})")
        honest = sum(1 for verdict in verdicts if not verdict["forged"])
        forged = len(verdicts) - honest
        detail = (f"{honest} honest bundle(s) verified from the artifact "
                  "alone")
        if forged:
            detail += (f"; {forged} forged bundle(s) rejected on "
                       "digest conservation")
        return InvariantResult("epoch-bundles-verify", True, detail)
