"""Per-layer tracing from outside the program.

The benchmark never edits the code it measures. Instead, :class:`Tracer`
replaces selected public functions and methods of each layer with thin
wrappers that record, per call, a span on a stack (so a layer's *self* time
is its span's duration minus the time its child spans cover) and a count.
Every module binding of a wrapped function is replaced, because the codec
and hash helpers are imported by name (``from repro.wire.codec import
encode``) by many modules.

Spans are folded into per-layer totals as they close instead of being kept
one by one: a ten-second run of the unbatched workload closes over a million
spans, and the ledger the benchmark reports only needs their sums.

A wrapper checks ``tracer.on`` first and calls straight through when tracing
is off, so the benchmark can install the wrappers before set-up (RPC servers
capture bound handlers when they are registered) and still time set-up and
untraced blocks without span bookkeeping.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Wrappers, a span stack and the per-layer ledger they fill."""

    def __init__(self):
        self.on = False
        self._stack: list[list] = []          # [layer, time covered by children]
        self._active: dict = {}               # counter -> calls open on the stack
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.call_seconds: dict[str, float] = defaultdict(float)
        self._wrapped: set = set()            # (owner, attribute) already wrapped

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A copy of the ledger, for differencing two points of a run."""
        return {"self": dict(self.self_seconds), "counts": dict(self.counts),
                "calls": dict(self.call_seconds)}

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """``after - before`` for two :meth:`snapshot` results."""
        return {part: {key: value - before[part].get(key, 0)
                       for key, value in after[part].items()}
                for part in after}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, fn, layer: str, counter: str | None, weight,
                 result_counter: str | None):
        tracer = self
        stack = self._stack
        active = self._active
        self_seconds = self.self_seconds
        counts = self.counts
        call_seconds = self.call_seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            # A call made inside another call of the same counter (a plain
            # multiply inside a cached multiply, schnorr_sign inside
            # SigningKey.sign) is part of the outer operation: it gets a
            # span but no separate count.
            depth = active.get(counter, 0)
            if counter is not None and depth == 0:
                counts[counter] += weight(args, kwargs) if weight else 1
            active[counter] = depth + 1
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                active[counter] = depth
                self_seconds[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if counter is not None and depth == 0:
                    call_seconds[counter] += elapsed
            if result_counter is not None:
                counts[result_counter] += len(result)
            return result

        return wrapper

    def wrap_function(self, module, name: str, layer: str,
                      counter: str | None = None, weight=None,
                      result_counter: str | None = None) -> None:
        """Wrap a module-level function and every module binding of it."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, layer, counter, weight, result_counter)
        for module_name, other in list(sys.modules.items()):
            if other is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, attribute, wrapper)

    def wrap_method(self, cls, name: str, layer: str,
                    counter: str | None = None, weight=None,
                    result_counter: str | None = None) -> None:
        """Wrap a method defined on ``cls`` itself (static and class
        methods keep their kind)."""
        raw = cls.__dict__[name]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind else raw
        replacement = self._wrapper(function, layer, counter, weight, result_counter)
        self._patch(cls, name, kind(replacement) if kind else replacement)

    def wrap_class(self, cls, layer: str, include_private=()) -> None:
        """Give every public plain method of ``cls`` a span (no counter).

        Generators are skipped: a span around one would close when the
        generator object is created, not when its work is done.
        """
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in include_private:
                continue
            function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(function) or inspect.isgeneratorfunction(function):
                continue
            if (cls, name) in self._wrapped:
                continue
            self.wrap_method(cls, name, layer)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._wrapped.add((owner, attribute))
        setattr(owner, attribute, replacement)


def _count_arg(position: int):
    """Weight a call by ``len`` of one positional argument."""
    def weight(args, kwargs):
        return len(args[position])
    return weight


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (tracer left off)."""
    from repro.apps.keybackup import KeyBackupClient
    from repro.core.client import AuditingClient
    from repro.core.deployment import Deployment
    from repro.core.framework import TrustDomainFramework
    from repro.core.trust_domain import TrustDomain
    from repro.crypto import ecdsa, hashes, schnorr, secp256k1
    from repro.crypto.hashchain import HashChain
    from repro.crypto.keys import SigningKey, VerifyingKey
    from repro.crypto.shamir import ShamirSecretSharing
    from repro.enclave.attestation import AttestationVerifier
    from repro.enclave.nitro import NitroStyleEnclave
    from repro.enclave.sgx import SgxStyleEnclave
    from repro.enclave.tee import EnclaveBase
    from repro.net.rpc import PendingRpcBatch, RpcClient, RpcServer
    from repro.net.transport import Network
    from repro.net.vsock import SocketHop
    from repro.sandbox.pysandbox import PythonSandbox
    from repro.service.client import ServiceClient
    from repro.service.parallel import ParallelShardExecutor
    from repro.service.ring import HashRing
    from repro.service.sharded import ShardedService
    from repro.transparency.ct_log import CtLog
    from repro.transparency.log import DigestLog
    from repro.wire import codec, framing

    t = tracer
    # wire
    t.wrap_function(codec, "encode", "wire.codec", "wire.codec.encode_calls",
                    result_counter="wire.codec.bytes_encoded")
    t.wrap_function(codec, "decode", "wire.codec", "wire.codec.decode_calls")
    t.wrap_function(codec, "canonical_digest", "wire.codec")
    t.wrap_function(framing, "frame_message", "wire.framing", "wire.framing.frames")
    t.wrap_function(framing, "split_frames", "wire.framing")
    # net
    t.wrap_method(Network, "send", "net.transport")
    t.wrap_method(Network, "deliver_next", "net.transport")
    t.wrap_method(RpcClient, "call_with_retry", "net.rpc", "net.rpc.calls")
    t.wrap_method(RpcClient, "begin_many", "net.rpc", "net.rpc.calls",
                  weight=_count_arg(1))
    t.wrap_class(RpcClient, "net.rpc")
    t.wrap_class(PendingRpcBatch, "net.rpc")
    t.wrap_method(RpcServer, "dispatch_payload", "net.rpc")
    t.wrap_method(RpcServer, "_handle_message", "net.rpc")
    t.wrap_method(SocketHop, "forward", "net.vsock")
    # sandbox: one count per crossing of the sandbox boundary
    t.wrap_method(PythonSandbox, "invoke", "sandbox", "sandbox.invokes")
    t.wrap_method(PythonSandbox, "invoke_many", "sandbox", "sandbox.invokes")
    # crypto
    curve = secp256k1.Secp256k1
    for name in ("multiply", "multiply_cached", "generator_multiply"):
        t.wrap_method(curve, name, "crypto.ec", "crypto.ec.multiplies")
    t.wrap_method(secp256k1.FixedBaseTable, "multiply", "crypto.ec",
                  "crypto.ec.multiplies")
    t.wrap_method(SigningKey, "sign", "crypto.sig", "crypto.sig.signs")
    t.wrap_method(VerifyingKey, "verify", "crypto.sig", "crypto.sig.verifies")
    t.wrap_function(schnorr, "schnorr_sign", "crypto.sig", "crypto.sig.signs")
    t.wrap_function(ecdsa, "ecdsa_sign", "crypto.sig", "crypto.sig.signs")
    t.wrap_function(schnorr, "schnorr_verify", "crypto.sig", "crypto.sig.verifies")
    t.wrap_function(ecdsa, "ecdsa_verify", "crypto.sig", "crypto.sig.verifies")
    for name in ("sha256", "double_sha256", "hmac_sha256", "tagged_hash"):
        t.wrap_function(hashes, name, "crypto.hash", "crypto.hash.calls")
    t.wrap_method(ShamirSecretSharing, "split", "crypto.shamir", "crypto.shamir.splits")
    t.wrap_method(ShamirSecretSharing, "split_many", "crypto.shamir",
                  "crypto.shamir.splits", weight=_count_arg(1))
    t.wrap_method(ShamirSecretSharing, "reconstruct", "crypto.shamir",
                  "crypto.shamir.reconstructs")
    # enclave
    for cls in (EnclaveBase, NitroStyleEnclave, SgxStyleEnclave):
        t.wrap_method(cls, "attest", "enclave", "enclave.attests")
    t.wrap_method(EnclaveBase, "call", "enclave")
    t.wrap_method(AttestationVerifier, "verify", "enclave", "enclave.verifies")
    # transparency
    t.wrap_method(DigestLog, "append", "transparency", "transparency.log.appends")
    t.wrap_method(CtLog, "append", "transparency", "transparency.log.appends")
    # Verifying an export rebuilds a hash chain; those appends are reads.
    t.wrap_method(HashChain, "append", "transparency")
    t.wrap_method(DigestLog, "verify_export", "transparency",
                  "transparency.log.entries_verified", weight=_count_arg(0))
    t.wrap_method(DigestLog, "views_consistent", "transparency")
    t.wrap_method(DigestLog, "export", "transparency")
    # core
    t.wrap_method(TrustDomain, "audit_response", "core", "core.audit_responses")
    t.wrap_method(TrustDomain, "install_update", "core", "core.installs")
    t.wrap_class(TrustDomain, "core", include_private=("_invoke_many_wire",))
    t.wrap_class(TrustDomainFramework, "core")
    t.wrap_class(Deployment, "core")
    t.wrap_class(AuditingClient, "core")
    # service
    t.wrap_method(HashRing, "shard_for", "service.ring", "service.ring.lookups")
    for name in ("scatter", "begin_scatter", "scatter_to_shards",
                 "begin_scatter_to_shards"):
        t.wrap_method(ShardedService, name, "service.sharded",
                      "service.sharded.scatters")
    t.wrap_class(ShardedService, "service.sharded")
    t.wrap_class(ServiceClient, "service.client")
    t.wrap_method(ParallelShardExecutor, "submit", "service.parallel",
                  "service.parallel.pipe_bytes", weight=_count_arg(3))
    t.wrap_method(ParallelShardExecutor, "result", "service.parallel",
                  "service.parallel.waits",
                  result_counter="service.parallel.pipe_bytes")
    # apps
    t.wrap_class(KeyBackupClient, "apps.keybackup")
