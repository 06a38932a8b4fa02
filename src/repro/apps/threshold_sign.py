"""BLS threshold signing for financial custody (the paper's §5 application).

Each trust domain holds one share of a BLS signing key and produces a
signature share on request; any ``t`` shares combine into a signature that
verifies under the single group public key, so no domain (and no attacker
below the threshold) can ever sign alone.

The application code that runs inside every domain's sandbox is the WVM
``bls_share`` program — the same program Table 3 benchmarks — so invoking the
custody service end-to-end exercises the full stack: RPC → vsock hops →
enclave → framework → WVM sandbox → BLS arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.package import CodePackage, DeveloperIdentity
from repro.crypto.bilinear import BLS_SCALAR_ORDER, G1Element, G2Element
from repro.crypto.bls import BlsSignature, BlsSignatureShare, BlsThresholdScheme
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.shamir import Share
from repro.errors import ApplicationError
from repro.sandbox.programs import bls_share_source
from repro.service import PackageBinding, ServiceClient, ServiceSpec, ShardMigrator
from repro.service.waves import Wave, run_batched, run_inline

__all__ = ["CustodyDeployment", "CustodyClient", "SignedTransaction"]

APP_NAME = "bls-custody"
APP_VERSION = "1.0.0"


@dataclass(frozen=True)
class SignedTransaction:
    """A transaction plus the threshold signature the custody service produced."""

    message: bytes
    signature: BlsSignature
    signer_indices: tuple[int, ...]


class _CustodyShardMigrator(ShardMigrator):
    """Provisions replicated signer groups onto freshly grown shards.

    Custody state is fully replicated — every shard's signer ``i`` holds the
    same key share under the one group public key — so no records ever move
    between shards. Growing the service means provisioning the signer group
    (enclave key-share installation, the operator's key ceremony) on each new
    shard before the epoch flips; message routing then spreads signing load
    over the larger fleet while any shard's quorum still produces the same
    verifiable signature.
    """

    def __init__(self, service: "CustodyDeployment"):
        self.service = service

    def provision(self, plane, new_shard_indices: list[int]) -> None:
        self.service.install_shares_on_shards(
            [plane.shards[index] for index in new_shard_indices])


class CustodyDeployment:
    """The custody provider's side: domains, key shares, and the signing app.

    Args:
        threshold: number of signature shares required (``t``).
        num_signers: number of share-holding trust domains; the deployment adds
            trust domain 0 (the developer's own, shareless domain) on top,
            matching the paper's architecture.
        use_dkg: generate the key with a dealerless DKG instead of a trusted
            dealer.
    """

    def __init__(self, threshold: int = 2, num_signers: int = 3,
                 developer: DeveloperIdentity | None = None, use_dkg: bool = False,
                 keygen_seed: bytes | None = None, shards: int = 1,
                 regions: tuple[str, ...] = ()):
        if threshold < 1 or num_signers < threshold:
            raise ApplicationError("invalid threshold parameters")
        self.threshold = threshold
        self.num_signers = num_signers
        self.developer = developer or DeveloperIdentity("custody-developer")
        package = CodePackage(APP_NAME, APP_VERSION, "wvm", bls_share_source())
        # With shards > 1 every shard holds the *same* key shares (replicated
        # signer groups under one group public key); transactions are routed
        # to shards by message, so signing capacity scales horizontally while
        # any shard's quorum produces the same verifiable signature.
        self.spec = ServiceSpec(
            name=APP_NAME,
            packages=(PackageBinding(package),),
            domains_per_shard=num_signers + 1,
            shard_count=shards,
            threshold=threshold,
            regions=tuple(regions),
        )
        self.plane = self.spec.synthesize(self.developer)
        self.plane.migrator = _CustodyShardMigrator(self)
        self.deployment = self.plane.primary
        self.scheme = BlsThresholdScheme(threshold, num_signers)
        self.group_public_key, self._shares = self._generate_key(use_dkg, keygen_seed)
        self._install_shares()

    @property
    def num_shards(self) -> int:
        """Number of replicated signer groups."""
        return self.plane.num_shards

    def reshard(self, new_shard_count: int):
        """Grow to ``new_shard_count`` replicated signer groups, live.

        New shards receive the same key shares (one group public key for the
        whole fleet); message-keyed routing then spreads signing load across
        the larger fleet with no state movement at all.
        """
        return self.plane.reshard(new_shard_count)

    # ------------------------------------------------------------------
    # Key management
    # ------------------------------------------------------------------
    def _generate_key(self, use_dkg: bool, seed: bytes | None) -> tuple[G2Element, list[Share]]:
        if use_dkg:
            return DistributedKeyGeneration(self.threshold, self.num_signers).run(seed)
        return self.scheme.keygen(seed)

    def _install_shares(self) -> None:
        self.install_shares_on_shards(self.plane.shards)

    def install_shares_on_shards(self, shards) -> None:
        """Provision the signer group onto ``shards`` (the key ceremony).

        Signer i (1-indexed) lives on trust domain i of every shard (domain 0
        holds no share). Also called by the reshard migrator for shards grown
        after deployment.
        """
        for shard in shards:
            for share in self._shares:
                domain = shard.domains[share.index]
                if domain.enclave is not None:
                    domain.enclave.memory.write("bls_key_share", share.value)

    def share_for_signer(self, signer_index: int) -> Share:
        """The key share held by ``signer_index`` (1-indexed).

        Exposed for tests and the benchmark harness; production code paths go
        through :class:`CustodyClient`.
        """
        for share in self._shares:
            if share.index == signer_index:
                return share
        raise ApplicationError(f"no signer with index {signer_index}")


class CustodyClient:
    """The asset owner's side: audit, request shares, combine, verify."""

    def __init__(self, service: CustodyDeployment, audit_before_use: bool = True):
        self.service = service
        # Custody re-audits before every signing operation: each signature
        # moves funds, so the session never signs against an unverified fleet.
        self.session = ServiceClient(
            service.plane,
            audit_policy="always" if audit_before_use else "never",
        )
        self.auditing_client = self.session.auditing_client
        self.audit_before_use = audit_before_use

    def audit(self):
        """Audit the custody deployment; raises on any misbehavior."""
        return self.session.audit_compat()

    def sign_op(self, message: bytes, candidates: list[int] | None = None):
        """Collect ``t`` signature shares from whichever signers answer.

        An op generator (see :mod:`repro.service.waves`): one need-``t``
        wave over ``candidates`` (all signers by default), in order — signing
        survives crashed or compromised signers as long as a threshold
        remains honest and reachable. Combines and verifies the shares and
        returns the :class:`SignedTransaction`; raises
        :class:`ApplicationError` when fewer than ``t`` signers answered.
        """
        service = self.service
        if candidates is None:
            candidates = list(range(1, service.num_signers + 1))
        message_int = int.from_bytes(message, "big") if message else 0
        wave = Wave([
            (message, signer_index, "bls_share",
             [message_int, len(message),
              service.share_for_signer(signer_index).value, BLS_SCALAR_ORDER])
            for signer_index in candidates
        ], need=service.threshold)
        results = yield wave
        partials = [BlsSignatureShare(signer_index, BlsSignature(G1Element(result["value"])))
                    for signer_index, result in zip(candidates, results)
                    if wave.ok(result)]
        if len(partials) < service.threshold:
            raise ApplicationError(
                f"only {len(partials)} of the required {service.threshold} "
                "signers produced a signature share"
            )
        signature = service.scheme.combine(partials)
        if not service.scheme.verify(service.group_public_key, message, signature):
            raise ApplicationError("combined threshold signature failed verification")
        return SignedTransaction(
            message=message, signature=signature,
            signer_indices=tuple(partial.signer_index for partial in partials))

    def sign_transaction(self, message: bytes,
                         signer_indices: list[int] | None = None) -> SignedTransaction:
        """Collect ``t`` signature shares and combine them into one signature.

        Asks ``signer_indices`` (default: signers ``1..t``) in order; see
        :meth:`sign_op`.
        """
        self.session.checkpoint(message)
        return run_inline(self.session.plane,
                          self.sign_op(message, self._signers(signer_indices)))

    def sign_transaction_failover(self, message: bytes,
                                  candidate_signers: list[int] | None = None) -> SignedTransaction:
        """Collect ``t`` shares from whichever of ``candidate_signers`` (all
        signers by default) answer, then combine; see :meth:`sign_op`."""
        self.session.checkpoint(message)
        return run_inline(self.session.plane,
                          self.sign_op(message, candidate_signers))

    def sign_transactions(self, messages: list[bytes],
                          signer_indices: list[int] | None = None) -> list:
        """Sign many transactions, asking the signers in merged batch waves.

        The first ``t`` of ``signer_indices`` (default: signers ``1..t``)
        produce their shares for the whole batch in one scatter; a message
        still short asks the next signers in a further wave. Returns one
        outcome per message, in order: a :class:`SignedTransaction`, or the
        :class:`ApplicationError` instance of a message fewer than ``t``
        signers answered (failures are isolated per message).
        """
        self.session.checkpoint()
        signers = self._signers(signer_indices)
        return run_batched(self.session.plane,
                           [self.sign_op(message, signers) for message in messages])

    def _signers(self, signer_indices: list[int] | None) -> list[int]:
        if signer_indices is None:
            return list(range(1, self.service.threshold + 1))
        if len(signer_indices) < self.service.threshold:
            raise ApplicationError(
                f"need at least {self.service.threshold} signers, got {len(signer_indices)}"
            )
        return signer_indices

    def verify(self, transaction: SignedTransaction) -> bool:
        """Verify a signed transaction under the custody service's public key."""
        return self.service.scheme.verify(
            self.service.group_public_key, transaction.message, transaction.signature
        )
