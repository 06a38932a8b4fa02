"""The benchmark's four closed-loop workloads.

Each workload is one client session with one request outstanding at a time,
driven through the program's public APIs. Its inputs come from a seeded
generator; the crypto layer's randomness is made deterministic by the runner
(``repro.crypto.rng.deterministic(seed)``), so the same seed gives the same
keys, nonces, requests and bytes.

A workload object has four phases:

* ``setup(phases)`` stands the deployment up and records how long each part
  took (``phases[name] = seconds``);
* ``make_inputs(index)`` draws the inputs of loop iteration ``index`` and
  readies the state it runs on (outside every timer, never traced);
* ``run(inputs)`` performs the iteration, checks every output and returns a
  :class:`Outcome`;
* ``finish()`` checks the end state and returns a list of problems, and
  ``close()`` releases what set-up started.

``repro`` is imported inside the methods, never at module import: the runner
times set-up from before the first ``repro`` import, and spawned executor
workers import this package's entry script without wanting the program.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

clock = time.perf_counter


class SetupError(Exception):
    """Set-up failed (for example an executor worker did not start)."""


@dataclass
class Outcome:
    """What one loop iteration did."""

    ops: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)   # seconds per request
    writes: list = field(default_factory=list)      # seconds per write step
    problems: list = field(default_factory=list)    # output checks that failed


class Workload:
    """Shared plumbing: seeded inputs and per-kind trace segments."""

    name = ""
    prefix = 8          # iterations whose per-layer counts must repeat exactly
    requests_per_iteration = 1
    # A timed loop always ends on a multiple of this many iterations, so a
    # workload whose state is rebuilt every ``cycle`` iterations covers the
    # same states in every run, whatever the host's speed.
    cycle = 1
    rss_iterations = 150    # peak RSS is read once this many iterations ran

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.tracer = None
        # Per-kind ledgers (audit-churn splits audits from updates).
        self.segments: dict[str, dict] = {}

    def timed(self, kind: str, fn, *args):
        """Call ``fn(*args)``; return ``(result, seconds)``.

        When a tracer is on, the ledger delta of the call is added to the
        ``kind`` segment, so per-layer work can be split by request kind.
        """
        tracer = self.tracer if self.tracer is not None and self.tracer.on else None
        before = tracer.snapshot() if tracer is not None else None
        started = clock()
        result = fn(*args)
        elapsed = clock() - started
        if tracer is not None:
            delta = tracer.delta(tracer.snapshot(), before)
            segment = self.segments.setdefault(
                kind, {"n": 0, "seconds": 0.0, "self": {}, "counts": {}, "calls": {}})
            segment["n"] += 1
            segment["seconds"] += elapsed
            for part in ("self", "counts", "calls"):
                totals = segment[part]
                for key, value in delta[part].items():
                    totals[key] = totals.get(key, 0) + value
        return result, elapsed

    # Layer probes the runner reads; workloads without the layer keep these.
    def sim_seconds(self) -> float:
        return 0.0

    def network_stats(self) -> tuple[int, int]:
        return 0, 0

    def rpc_retries(self) -> int:
        return 0

    def vsock_stats(self) -> tuple[int, int]:
        return 0, 0

    def finish(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


def _hop_totals(deployments) -> tuple[int, int]:
    """Forwarded messages and bytes over every vsock hop (``HopStats``)."""
    messages = size = 0
    for deployment in deployments:
        for domain in deployment.domains:
            if domain.vsock is None:
                continue
            for hop in domain.vsock.hops:
                messages += hop.stats.forwarded_messages
                size += hop.stats.forwarded_bytes
    return messages, size


class _KeyBackup(Workload):
    """Key backup, 4 trust domains per shard, reconstruction threshold 3."""

    shards = 4
    users_per_request = 128

    def _build(self, phases: dict) -> None:
        from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment

        started = clock()
        self.service = KeyBackupDeployment(num_domains=4, threshold=3,
                                           shards=self.shards)
        phases["deploy_build_s"] = clock() - started
        self.plane = self.service.plane
        self.client = KeyBackupClient(self.service, audit_before_use=False)

    def _audit(self, phases: dict) -> None:
        from repro.errors import MisbehaviorDetected

        started = clock()
        try:
            reports = self.client.audit()
        except MisbehaviorDetected as exc:
            raise SetupError(f"set-up audit failed: {exc}") from exc
        phases["client_audit_s"] = clock() - started
        reports = reports if isinstance(reports, list) else [reports]
        if len(reports) != self.shards or not all(report.ok for report in reports):
            raise SetupError("set-up audit did not pass on every shard")

    def _route_network(self) -> None:
        from repro.net.latency import lan_profile
        from repro.net.transport import Network

        self.network = Network(clock=self.plane.clock, default_latency=lan_profile())
        self.plane.route_via_network(self.network)

    def setup(self, phases: dict) -> None:
        self._build(phases)
        self._route_network()
        self._audit(phases)

    def make_inputs(self, index: int) -> list:
        rng = self.rng
        return [(f"u{index}.{slot}-{rng.getrandbits(32):08x}", rng.getrandbits(248))
                for slot in range(self.users_per_request)]

    def run(self, items: list) -> Outcome:
        from repro.errors import ReproError

        outcome = Outcome(ops=len(items))
        started = clock()
        try:
            stored = self.client.backup_keys(items)
            write = clock() - started
            recovered = self.client.recover_keys([user for user, _ in items])
        except ReproError as exc:
            outcome.failed = len(items)
            outcome.problems.append(f"{type(exc).__name__}: {exc}")
            return outcome
        outcome.latencies.append(clock() - started)
        outcome.writes.append(write)
        for (user, secret), receipt, value in zip(items, stored, recovered):
            if isinstance(receipt, Exception) or value != secret:
                outcome.failed += 1
                if len(outcome.problems) < 3:
                    outcome.problems.append(
                        f"user {user}: stored {receipt!r}, recovered {value!r}")
        return outcome

    def sim_seconds(self) -> float:
        return self.plane.clock.now()

    def network_stats(self) -> tuple[int, int]:
        stats = self.network.stats
        return stats.messages_sent, stats.bytes_sent

    def rpc_retries(self) -> int:
        return self.plane.rpc_retry_total()

    def vsock_stats(self) -> tuple[int, int]:
        return _hop_totals(self.plane.shards)

    def close(self) -> None:
        self.plane.unroute()


class KbBatched(_KeyBackup):
    """``backup_keys`` then ``recover_keys`` of 128 users on 4 shards over
    the simulated LAN: the batched data path."""

    name = "kb-batched"


class KbRoundtrip(_KeyBackup):
    """``backup_key`` then ``recover_key_any`` of one user on 1 shard: the
    unbatched path, one framed message per RPC."""

    name = "kb-roundtrip"
    shards = 1
    users_per_request = 1
    prefix = 200
    rss_iterations = 5000

    def run(self, items: list) -> Outcome:
        from repro.errors import ReproError

        (user, secret), = items
        outcome = Outcome(ops=1)
        started = clock()
        try:
            self.client.backup_key(user, secret)
            write = clock() - started
            value = self.client.recover_key_any(user)
        except ReproError as exc:
            outcome.failed = 1
            outcome.problems.append(f"{type(exc).__name__}: {exc}")
            return outcome
        outcome.latencies.append(clock() - started)
        outcome.writes.append(write)
        if value != secret:
            outcome.failed = 1
            outcome.problems.append(f"user {user}: recovered a different key")
        return outcome


class KbParallel(_KeyBackup):
    """The kb-batched requests served by ``ParallelShardExecutor`` worker
    processes (2 workers, 4 shards) over OS pipes, with no simulated clock."""

    name = "kb-parallel"
    workers = 2

    def setup(self, phases: dict) -> None:
        from repro.errors import RpcError
        from repro.service.parallel import ParallelShardExecutor

        # The workers rebuild the keybackup workload's deployment (4 domains,
        # threshold 3) under the same seed, so their keys equal the ones
        # _build makes here.
        self._build(phases)
        self.executor = ParallelShardExecutor("keybackup", self.seed, ops=1,
                                              shards=self.shards,
                                              workers=self.workers)
        started = clock()
        try:
            self.executor.start(self.plane)
        except (RpcError, EOFError, OSError) as exc:
            self.close()
            detail = str(exc) or ("a worker closed its pipe before reporting "
                                  "ready; its traceback is on stderr")
            raise SetupError(f"parallel workers failed to start: "
                             f"{type(exc).__name__}: {detail}") from exc
        phases["worker_start_s"] = clock() - started
        self.plane.route_via_executor(self.executor)
        self._audit(phases)
        self.stored_users = 0

    def run(self, items: list) -> Outcome:
        outcome = super().run(items)
        self.stored_users += outcome.ops - outcome.failed
        return outcome

    def finish(self) -> list[str]:
        """Read the end state through the executor: every domain of every
        shard must hold one share per user stored on that shard, and the
        shards together must hold every user stored."""
        problems = []
        total = 0
        for shard in range(self.shards):
            counts = [self.plane.invoke_on_shard(shard, domain, "count_users", {})
                      ["value"]["users"] for domain in range(4)]
            if len(set(counts)) != 1:
                problems.append(f"shard {shard} domains disagree on user count: {counts}")
            total += counts[0]
        if total != self.stored_users:
            problems.append(f"workers hold {total} users, {self.stored_users} were stored")
        return problems

    def network_stats(self) -> tuple[int, int]:
        return 0, 0     # pipes, no simulated network (nor clock nor hops here)

    def close(self) -> None:
        from multiprocessing import resource_tracker

        self.plane.unroute()
        self.executor.shutdown()
        # Spawning the workers also started multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        resource_tracker._resource_tracker._stop()


class AuditChurn(Workload):
    """A heterogeneous (Nitro + SGX) 4-domain deployment running the
    key-backup package: four fresh audits, then one signed code update.

    The logs grow by one release per iteration, so an audit costs more as
    the run goes on. Every ``cycle`` iterations the deployment is built
    afresh (outside the timed window) and timed loops end on whole cycles,
    so every run sees the same log lengths, 1 to ``cycle`` releases, and a
    faster host or program does not lengthen the logs it audits.
    """

    name = "audit-churn"
    audits_per_update = 4
    requests_per_iteration = audits_per_update + 1
    cycle = 50
    prefix = cycle
    rss_iterations = 2 * cycle

    def setup(self, phases: dict) -> None:
        from repro.apps.keybackup import KEY_BACKUP_APP_SOURCE
        from repro.core import (AuditingClient, CodePackage, Deployment,
                                DeploymentConfig, DeveloperIdentity)

        self.source = KEY_BACKUP_APP_SOURCE
        self.CodePackage = CodePackage
        self.AuditingClient = AuditingClient
        self.Deployment = Deployment
        self.DeploymentConfig = DeploymentConfig
        self.developer = DeveloperIdentity("perfbench-developer")
        self.ended: list[str] = []
        started = clock()
        self._deploy()
        phases["deploy_build_s"] = clock() - started
        started = clock()
        report = self._audit()
        phases["client_audit_s"] = clock() - started
        if not report.ok:
            raise SetupError("set-up audit of the fresh deployment failed")

    def _deploy(self) -> None:
        """Build the deployment and install its first release."""
        self.deployment = None      # let the previous one go first
        self.deployment = self.Deployment(
            "audit-churn", self.developer,
            self.DeploymentConfig(num_domains=4, heterogeneous=True))
        self.release = 0
        self.manifest = self.deployment.publish_and_install(self._next_package())

    def _next_package(self):
        """The next release: the app source plus a seeded-length revision
        note, so release sizes (and bytes hashed and copied) follow the seed."""
        self.release += 1
        note = "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(self.rng.randrange(16, 256)))
        return self.CodePackage("key-backup", f"1.{self.release}.0", "python",
                                f"{self.source}\n# release {self.release}: {note}\n")

    def make_inputs(self, index: int):
        if index and index % self.cycle == 0:
            self.ended.extend(self._end_state())
            self._deploy()
        return self._next_package()

    def _audit(self):
        return self.AuditingClient(self.deployment.vendor_registry).audit_deployment(
            self.deployment)

    def run(self, package) -> Outcome:
        from repro.errors import ReproError

        outcome = Outcome(ops=self.audits_per_update + 1)
        expected = self.manifest.package_digest
        for _ in range(self.audits_per_update):
            report, seconds = self.timed("audit", self._audit)
            if not report.ok or report.agreed_digest != expected:
                outcome.failed += 1
                outcome.problems.append(
                    f"audit at release {self.manifest.version}: ok={report.ok}, "
                    f"agreed digest is the latest release: "
                    f"{report.agreed_digest == expected}")
            else:
                outcome.latencies.append(seconds)
        previous = self.manifest.sequence
        try:
            manifest, seconds = self.timed(
                "update", self.deployment.publish_and_install, package)
        except ReproError as exc:
            outcome.failed += 1
            outcome.problems.append(f"update {package.version}: {exc}")
            return outcome
        if manifest.sequence != previous + 1 or manifest.package_digest != package.digest():
            outcome.failed += 1
            outcome.problems.append(
                f"update {package.version}: sequence {previous} -> {manifest.sequence}")
        else:
            outcome.writes.append(seconds)
        self.manifest = manifest
        return outcome

    def _end_state(self) -> list[str]:
        if self.deployment.current_sequence != self.manifest.sequence:
            return [f"deployment is at sequence {self.deployment.current_sequence}, "
                    f"the last manifest is {self.manifest.sequence}"]
        return []

    def finish(self) -> list[str]:
        return self.ended + self._end_state()

    def sim_seconds(self) -> float:
        return self.deployment.clock.now()

    def vsock_stats(self) -> tuple[int, int]:
        return _hop_totals([self.deployment])


WORKLOADS = {cls.name: cls for cls in (KbBatched, KbParallel, KbRoundtrip, AuditChurn)}
