"""Application drivers: the one per-app workload definition.

A driver builds its app's deployment, draws a seeded list of operations (one
per simulated client request), and hands each out as one op generator
(:meth:`ScenarioDriver.op`) built on the app client's own op — which the
executors of :mod:`repro.service.waves` run inline, batched in lockstep, or
on the discrete-event loop — then checks the end state. The load harness,
the scenario engine (both through :class:`~repro.sim.harness.OpLoop`) and the
:class:`~repro.service.parallel.ParallelShardExecutor` workers all build
their deployments from these classes."""

from __future__ import annotations

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.apps.odoh import ObliviousDnsClient, ObliviousDnsDeployment
from repro.apps.prio import (
    FIELD_MODULUS,
    PartialSubmissionError,
    PrivateAggregationClient,
    PrivateAggregationDeployment,
)
from repro.apps.threshold_sign import CustodyClient, CustodyDeployment
from repro.core.client import AuditingClient
from repro.crypto.bls import BlsThresholdScheme
from repro.crypto.shamir import Share
from repro.errors import ApplicationError, ReproError, ThresholdError
from repro.sim.workload import WorkloadGenerator

__all__ = [
    "ScenarioDriver",
    "KeyBackupDriver",
    "ThresholdSignDriver",
    "PrioDriver",
    "OdohDriver",
    "DRIVERS",
    "make_driver",
]


def _invariant(name: str, ok: bool, detail: str):
    # Imported on use: the scenario package imports this module, and the
    # parallel workers that build drivers never load the scenario engine.
    from repro.sim.scenarios.spec import InvariantResult

    return InvariantResult(name, ok, detail)


class ScenarioDriver:
    """Base class: builds a deployment and drives its seeded operations.

    ``shards`` deploys the app across that many service-plane shards, placed
    round-robin across ``regions`` when given; the driver's ``plane`` is what
    the harness routes (for the classic ``shards=1`` layout it wraps exactly
    the single deployment). ``session`` names the harness driving the run:
    prio folds it into its client's session tag, which fixes each seed's
    submission→shard routing.
    """

    app_name = "?"

    def __init__(self, seed: int, ops: int, shards: int = 1,
                 regions: tuple = (), session: str = "scenario"):
        self.seed = seed
        self.ops = ops
        self.shards = shards
        self.regions = tuple(regions)
        self.session = session
        self.workload = WorkloadGenerator(seed)
        self._build()

    def _build(self) -> None:
        """Deploy the app, open its client, and draw the op inputs."""
        raise NotImplementedError

    def _serve(self, service) -> None:
        self.service = service
        self.deployment = service.deployment  # the primary shard
        self.plane = service.plane

    def routing_key(self, op_index: int):
        """The key the plane routes operation ``op_index`` by."""
        raise NotImplementedError

    def op(self, op_index: int):
        """Workload operation ``op_index`` as a wave generator.

        Run it with any executor of :mod:`repro.service.waves`; it raises a
        ``ReproError`` on failure and keeps the driver's bookkeeping.
        """
        raise NotImplementedError

    def finish(self, reshards: list) -> list:
        """Application-specific invariants over the end state of a run.

        The one end-state check of both harnesses: a scenario adds these to
        its verdicts, a load run reports the failing ones as its consistency
        issues. ``reshards`` lists the run's epoch transitions (the
        :class:`~repro.service.reshard.ReshardReport` of each).
        """
        raise NotImplementedError

    def audit_outcome(self):
        """Run a full client audit; returns ``(ok, evidence kinds)``.

        The default audits every shard the way any end user would —
        attestation against vendor roots, digest-log verification,
        cross-domain agreement, and the release-registry cross-check — and
        ANDs the verdicts (shards grown by a mid-run reshard included).
        """
        client = AuditingClient(self.deployment.vendor_registry)
        ok = True
        kinds = set()
        for shard in self.plane.shards:
            report = client.audit_deployment(shard)
            ok = ok and report.ok
            kinds.update(evidence.kind for evidence in report.evidence)
        return ok, kinds


class KeyBackupDriver(ScenarioDriver):
    """Back up a fresh user key each op, then recover and compare it."""

    app_name = "keybackup"

    def _build(self) -> None:
        self._serve(KeyBackupDeployment(num_domains=4, threshold=3,
                                        shards=self.shards, regions=self.regions))
        self.client = KeyBackupClient(self.service, audit_before_use=False)
        self.items = list(zip(self.workload.user_ids(self.ops),
                              self.workload.secrets(self.ops, bits=248)))
        self.backed_up: list[tuple[str, int]] = []

    def routing_key(self, op_index: int):
        return self.items[op_index][0]

    def op(self, op_index: int):
        user, secret = self.items[op_index]
        yield from self.client.backup_op(user, secret)
        # backed_up records at store-completion (not op completion): the
        # record-conservation check must count a user whose shares all
        # landed even if the op's recover leg later failed.
        self.backed_up.append((user, secret))
        if (yield from self.client.recover_op(user)) != secret:
            raise ApplicationError(f"recovered key for {user!r} does not match the original")

    def finish(self, reshards: list) -> list:
        summary = self.service.simulate_developer_compromise()
        breached = summary["shares_recoverable"]
        ok = breached < self.service.threshold and not summary["key_recoverable"]
        invariants = [_invariant(
            "key-stays-secret-below-threshold", ok,
            f"attacker reads {breached} of {self.service.num_domains} shares, "
            f"threshold is {self.service.threshold}",
        )]
        if reshards:
            invariants.append(self._conservation_invariant())
        return invariants

    def _conservation_invariant(self):
        """Across the epoch boundary: every backed-up key recoverable, no
        user's share set authoritative on two shards."""
        lost = []
        for user, secret in self.backed_up:
            try:
                if self.client.recover_key_any(user) != secret:
                    lost.append(user)
            except ReproError:
                lost.append(user)
        duplicated = []
        for user, _ in self.backed_up:
            holders = [
                shard_index
                for shard_index, shard in enumerate(self.plane.shards)
                if any(user in (domain.framework.application_state() or {})
                       .get("shares", {})
                       for domain in shard.domains)
            ]
            if len(holders) > 1:
                duplicated.append((user, holders))
        ok = not lost and not duplicated
        detail = (f"{len(self.backed_up)} keys recoverable after the epoch "
                  "flip; each user's shares live on exactly one shard")
        if lost:
            detail = f"records lost across the epoch boundary: {lost[:3]}"
        elif duplicated:
            detail = f"records duplicated across shards: {duplicated[:3]}"
        return _invariant("reshard-conserves-records", ok, detail)


class ThresholdSignDriver(ScenarioDriver):
    """Sign one transaction per op with failover across signers."""

    app_name = "threshold_sign"

    def _build(self) -> None:
        self._serve(CustodyDeployment(threshold=2, num_signers=3,
                                      keygen_seed=self.seed.to_bytes(8, "big"),
                                      shards=self.shards, regions=self.regions))
        self.client = CustodyClient(self.service, audit_before_use=False)
        self._messages = self.workload.messages(self.ops)

    def routing_key(self, op_index: int):
        return self._messages[op_index]

    def op(self, op_index: int):
        # Asks the first ``threshold`` signers and fails over to the rest;
        # the op verifies the combined signature before returning.
        return self.client.sign_op(self._messages[op_index])

    def finish(self, reshards: list) -> list:
        # Steal every key share the fallen TEEs expose and try to sign with
        # them alone: below the threshold the forgery must be impossible.
        # Shares are replicated across shards, so stealing signer i's share on
        # two shards yields one unique share, not two.
        stolen_by_index: dict[int, Share] = {}
        for shard in self.plane.shards:
            for signer_index, domain in enumerate(shard.domains[1:], start=1):
                if domain.enclave is not None and domain.enclave.memory.breached:
                    stolen_by_index[signer_index] = Share(
                        signer_index,
                        domain.enclave.memory.host_read("bls_key_share"))
        stolen = [stolen_by_index[index] for index in sorted(stolen_by_index)]
        scheme = BlsThresholdScheme(self.service.threshold, self.service.num_signers)
        if len(stolen) >= self.service.threshold:
            ok = False
            detail = f"{len(stolen)} shares stolen — at or above threshold {self.service.threshold}"
        else:
            message = b"forged transfer of all funds"
            partials = [scheme.sign_share(share, message) for share in stolen]
            try:
                scheme.combine(partials)
            except ThresholdError:
                ok = True
            else:
                ok = False
            detail = (f"attacker holds {len(stolen)} of the {self.service.threshold} "
                      "shares needed; forgery attempt rejected" if ok else
                      "forgery with sub-threshold shares unexpectedly combined")
        invariants = [_invariant("stolen-shares-cannot-sign-below-threshold",
                                 ok, detail)]
        if reshards:
            invariants.append(self._reshard_signing_invariant(reshards))
        return invariants

    def _reshard_signing_invariant(self, reshards: list):
        """A grown shard's replicated signer group signs under the same key."""
        old_count = min(r.old_shard_count for r in reshards)
        probe = None
        for attempt in range(256):
            candidate = f"reshard-probe-{attempt}".encode()
            if self.plane.shard_for(candidate) >= old_count:
                probe = candidate
                break
        if probe is None:
            return _invariant(
                "reshard-preserves-signing", False,
                "no probe message routed to a grown shard (ring broken?)")
        try:
            transaction = self.client.sign_transaction_failover(probe)
        except ReproError as exc:
            return _invariant(
                "reshard-preserves-signing", False,
                f"signing on a grown shard failed: {type(exc).__name__}")
        ok = self.client.verify(transaction)
        return _invariant(
            "reshard-preserves-signing", ok,
            f"shard {self.plane.shard_for(probe)} (grown this epoch) signed "
            "under the original group public key" if ok else
            "a grown shard produced a signature that does not verify")


class PrioDriver(ScenarioDriver):
    """Submit one telemetry value per op; verify the aggregate at the end."""

    app_name = "prio"

    def _build(self) -> None:
        self._serve(PrivateAggregationDeployment(num_servers=3, max_value=100,
                                                 shards=self.shards,
                                                 regions=self.regions))
        # A fixed session tag keeps submission→shard routing (and therefore
        # the whole run's report) deterministic per seed; real clients
        # default to a random tag per session.
        self.client = PrivateAggregationClient(
            self.service, audit_before_use=False,
            session_tag=f"{self.session}-{self.seed}")
        self._values = self.workload.telemetry_values(self.ops, 0, 100)
        self.accepted_values: list[int] = []
        self.torn_submissions = 0
        self.failed_submissions = 0

    def routing_key(self, op_index: int):
        # One submission per op: the op's index is its submission index, in
        # every execution mode.
        return self.client.submission_key(op_index)

    def op(self, op_index: int):
        value = self._values[op_index]
        try:
            yield from self.client.submit_op(value, self.routing_key(op_index))
        except PartialSubmissionError:
            self.torn_submissions += 1
            raise
        except ReproError:
            # A "clean" failure from the client's view — but a server may
            # still have accepted a share whose response was lost in flight.
            self.failed_submissions += 1
            raise
        self.accepted_values.append(value)

    def finish(self, reshards: list) -> list:
        invariants = []
        # Aggregation needs every server (the sum of all share vectors), so a
        # compromised or otherwise refusing server is a *refusal*, never a
        # silently wrong sum — the safe outcome in every branch below.
        if self.torn_submissions == 0:
            # Failed submissions may or may not have reached individual
            # servers (a lost response looks like a clean failure to the
            # client); either the servers still agree and the aggregate is
            # exact, or they disagree and aggregation must refuse. With no
            # failures at all, an ApplicationError is a real defect.
            expected = sum(self.accepted_values) % FIELD_MODULUS
            try:
                result = self.service.aggregate()
            except ReproError as exc:
                if not self.failed_submissions:
                    if isinstance(exc, ApplicationError):
                        raise
                    detail = ("aggregation refused to answer rather than "
                              "publish a sum from an untrusted fleet")
                else:
                    detail = (f"{self.failed_submissions} failed submissions "
                              "(or an untrusted server) left aggregation "
                              "refusing to answer")
                invariants.append(_invariant(
                    "aggregate-matches-accepted-submissions", True,
                    f"{detail} ({type(exc).__name__})",
                ))
            else:
                ok = (result["sum"] == expected
                      and result["submissions"] == len(self.accepted_values))
                invariants.append(_invariant(
                    "aggregate-matches-accepted-submissions", ok,
                    f"{len(self.accepted_values)} submissions aggregated exactly",
                ))
        else:
            # Torn submissions leave the servers disagreeing; the operator
            # must detect that instead of publishing a silently wrong sum.
            try:
                self.service.aggregate()
            except ReproError:
                invariants.append(_invariant(
                    "torn-submissions-detected", True,
                    f"{self.torn_submissions} torn submissions made the servers "
                    "disagree and aggregation refused to proceed",
                ))
            else:
                invariants.append(_invariant(
                    "torn-submissions-detected", False,
                    "servers disagreed on submissions but aggregation succeeded",
                ))
        total = self.service.num_servers
        breached = sum(
            1 for domain in self.deployment.domains
            if domain.enclave is not None and domain.enclave.memory.breached
        )
        invariants.append(_invariant(
            "no-single-server-learns-values", breached < total,
            f"{breached} of {total} aggregation servers readable by the attacker; "
            "individual values stay hidden while any server remains honest",
        ))
        return invariants


class OdohDriver(ScenarioDriver):
    """Resolve one name per op through the proxy/resolver split."""

    app_name = "odoh"

    def _build(self) -> None:
        self._names = self.workload.dns_queries(self.ops)
        self.records = {
            name: f"10.{i // 250}.{i % 250}.7" for i, name in enumerate(self._names)
        }
        self._serve(ObliviousDnsDeployment(records=self.records, shards=self.shards,
                                           regions=self.regions))
        self.client = ObliviousDnsClient(self.service, audit_before_use=False)
        self.resolved = 0

    def routing_key(self, op_index: int):
        return self._names[op_index]

    def _check(self, name: str, response) -> None:
        if not response.found or response.address != self.records[name]:
            raise ApplicationError(f"wrong answer for {name!r}")
        self.resolved += 1

    def op(self, op_index: int):
        name = self._names[op_index]
        self._check(name, (yield from self.client.resolve_op(name)))

    def finish(self, reshards: list) -> list:
        view = self.service.proxy_view()
        leaked = [item for item in view if not isinstance(item, int)]
        names_seen = [item for item in view if item in self.records]
        # The view must actually cover the traffic: an empty recording would
        # make this invariant vacuous, not satisfied. Migration traffic goes
        # operator→resolver, so a reshard must add *zero* names here.
        ok = not leaked and not names_seen and len(view) >= self.resolved
        invariants = [_invariant(
            "proxy-never-sees-query-names", ok,
            f"proxy recorded {len(view)} ciphertext lengths and zero names "
            f"across {self.resolved} resolutions",
        )]
        if reshards:
            invariants.append(self._conservation_invariant())
        return invariants

    def _conservation_invariant(self):
        """Across the epoch boundary: every record resolvable on exactly one
        shard, and resolvable through the full proxy path.

        A record whose owning shard hosts a compromised domain is exempt
        from the resolve probe: the breached TEE refusing service is the
        fail-safe behavior the design demands, not a record the migration
        lost (the record's presence in the resolver's state is still
        checked above).
        """
        holders: dict[str, list[int]] = {name: [] for name in self.records}
        for shard_index, shard in enumerate(self.plane.shards):
            state = (shard.domains[1].framework.application_state() or {})
            for name in state.get("records", {}):
                if name in holders:
                    holders[name].append(shard_index)
        lost = sorted(name for name, found in holders.items() if not found)
        duplicated = sorted(name for name, found in holders.items()
                            if len(found) > 1)
        breached_shards = {
            shard_index
            for shard_index, shard in enumerate(self.plane.shards)
            if any(domain.enclave is not None and domain.enclave.memory.breached
                   for domain in shard.domains)
        }
        unresolvable = []
        refused = 0
        if not lost and not duplicated:
            for name in sorted(self.records):
                if holders[name][0] in breached_shards:
                    refused += 1
                    continue
                try:
                    response = self.client.resolve(name)
                except ReproError:
                    unresolvable.append(name)
                    continue
                if not response.found or response.address != self.records[name]:
                    unresolvable.append(name)
        ok = not lost and not duplicated and not unresolvable
        detail = (f"{len(self.records)} records each owned by exactly one "
                  "shard and resolvable after the epoch flip")
        if refused:
            detail += (f" ({refused} on compromised shards, whose TEEs "
                       "fail safe and refuse to serve)")
        if lost:
            detail = f"records lost across the epoch boundary: {lost[:3]}"
        elif duplicated:
            detail = f"records duplicated across shards: {duplicated[:3]}"
        elif unresolvable:
            detail = f"records unresolvable after the reshard: {unresolvable[:3]}"
        return _invariant("reshard-conserves-records", ok, detail)

    def audit_outcome(self):
        """Audit proxy and resolver individually (they run different apps)."""
        client = AuditingClient(self.deployment.vendor_registry,
                                require_attestation_from_all_enclaves=True)
        kinds = set()
        ok = True
        for shard in self.plane.shards:
            for domain in shard.domains:
                report = client.audit_domains([domain])
                ok = ok and report.ok
                kinds.update(evidence.kind for evidence in report.evidence)
            # The cross-registry check audit_deployment would normally do:
            # every digest a domain has ever run must be a published release.
            published = set(shard.registry.digests())
            for domain in shard.domains:
                for entry in domain.framework.log_export():
                    if bytes(entry["code_digest"]) not in published:
                        ok = False
                        kinds.add("unpublished-code")
        return ok, kinds


DRIVERS = {
    driver.app_name: driver
    for driver in (KeyBackupDriver, ThresholdSignDriver, PrioDriver, OdohDriver)
}


def make_driver(app: str, seed: int, ops: int, shards: int = 1,
                regions: tuple = (), session: str = "scenario") -> ScenarioDriver:
    """Instantiate the driver for ``app`` with a seeded workload of ``ops``
    operations, deployed across ``shards`` service-plane shards (optionally
    placed round-robin across ``regions``) for the harness named by
    ``session``."""
    try:
        factory = DRIVERS[app]
    except KeyError:
        raise ValueError(f"no driver for app {app!r} "
                         f"(expected one of {sorted(DRIVERS)})") from None
    return factory(seed, ops, shards=shards, regions=tuple(regions),
                   session=session)
