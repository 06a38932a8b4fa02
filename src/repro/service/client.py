"""The unified client session facade.

Every app client used to hand-roll the same glue: build an
:class:`~repro.core.client.AuditingClient`, remember whether this session has
audited yet, audit before (or on first) use, invoke with retries riding the
at-most-once RPC layer.
:class:`ServiceClient` is that glue once, against the sharded service plane,
so the four application clients shrink to the crypto and data-shaping that is
genuinely theirs. Failover walks and batch waves are the op executors'
business (:mod:`repro.service.waves`).
"""

from __future__ import annotations

from typing import Callable

from repro.core.client import AuditingClient
from repro.errors import ServiceSpecError
from repro.service.sharded import ShardedService

__all__ = ["ServiceClient"]

AUDIT_POLICIES = ("always", "once", "never")


class ServiceClient:
    """A client session against a sharded service plane.

    Args:
        plane: the :class:`~repro.service.ShardedService` to talk to (or a
            bare :class:`~repro.core.deployment.Deployment`, which is adopted
            as a single-shard plane).
        audit_policy: when :meth:`checkpoint` audits — ``"always"`` re-audits
            at every checkpoint (key backup's paranoia: verify before every
            operation that touches secrets), ``"once"`` audits on the first
            checkpoint of the session, ``"never"`` disables auditing (test
            harnesses, workload drivers).
        auditing_client: override the auditing client (defaults to one built
            from the plane's shared vendor registry).
        audit_fn: override what an audit *does* — e.g. ODoH audits each
            domain individually because proxy and resolver run different
            published applications. Must raise on failure.
    """

    def __init__(self, plane, audit_policy: str = "always",
                 auditing_client: AuditingClient | None = None,
                 audit_fn: Callable | None = None):
        if not isinstance(plane, ShardedService):
            plane = ShardedService.adopt(plane)
        if audit_policy not in AUDIT_POLICIES:
            raise ServiceSpecError(
                f"unknown audit policy {audit_policy!r} (expected one of "
                f"{AUDIT_POLICIES})"
            )
        self.plane = plane
        self.audit_policy = audit_policy
        self.auditing_client = auditing_client or AuditingClient(plane.vendor_registry)
        self._audit_fn = audit_fn
        self._audited = False

    # ------------------------------------------------------------------
    # Audit-before-use
    # ------------------------------------------------------------------
    def audit(self) -> list:
        """Audit every shard; raises on any misbehavior, returns the reports.

        Each shard is a complete deployment, so each gets the full treatment:
        attestation against vendor roots, digest-log verification,
        cross-domain agreement, and the release-registry cross-check.
        """
        if self._audit_fn is not None:
            result = self._audit_fn()
            self._audited = True
            return result
        reports = [self.auditing_client.audit_or_raise(shard)
                   for shard in self.plane.shards]
        self._audited = True
        return reports

    def audit_compat(self):
        """Audit, returning the pre-plane shape legacy callers expect.

        A single-shard service yields its one report (exactly what the
        pre-redesign per-app ``audit()`` returned); a sharded one yields the
        list of per-shard reports. App adapters delegate here so the unwrap
        convention lives in one place.
        """
        reports = self.audit()
        return reports[0] if len(reports) == 1 else reports

    def audit_shard(self, shard_index: int):
        """Audit one shard only; raises on misbehavior, returns its report."""
        report = self.auditing_client.audit_or_raise(self.plane.shards[shard_index])
        return report

    def checkpoint(self, key=None) -> None:
        """Apply the session's audit policy at an operation boundary.

        App clients call this at the top of every public operation; whether
        an audit actually runs is the policy's decision. For a keyed
        operation, pass the routing ``key``: under the ``"always"`` policy
        only the shard the operation touches is re-audited (auditing the
        whole fleet before every single-shard request would multiply the
        legacy per-op cost by the shard count). A keyless checkpoint — batch
        operations that span shards, or the first audit of a ``"once"``
        session — covers the full fleet.
        """
        if self.audit_policy == "always":
            if key is None or self._audit_fn is not None:
                self.audit()
            else:
                self.audit_shard(self.plane.shard_for(key))
        elif self.audit_policy == "once" and not self._audited:
            self.audit()

    # ------------------------------------------------------------------
    # Invocation (a thin, key-routed passthrough)
    # ------------------------------------------------------------------
    def invoke(self, key, domain_index: int, entry: str, params) -> dict:
        """Invoke on ``key``'s shard (no implicit audit — see checkpoint)."""
        return self.plane.invoke(key, domain_index, entry, params)
