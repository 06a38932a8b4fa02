"""Tests for the Prio-style aggregation and ODoH-style DNS applications."""

import pytest

from repro.apps.odoh import ObliviousDnsClient, ObliviousDnsDeployment
from repro.apps.prio import (
    FIELD_MODULUS,
    PrivateAggregationClient,
    PrivateAggregationDeployment,
)
from repro.errors import ApplicationError
from repro.sim.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def aggregation_service():
    return PrivateAggregationDeployment(num_servers=2, max_value=100)


@pytest.fixture(scope="module")
def dns_service():
    return ObliviousDnsDeployment(records={
        "host1.example.com": "192.0.2.10",
        "host2.example.com": "192.0.2.20",
    })


class TestPrivateAggregation:
    def test_sum_matches_submitted_values(self, aggregation_service):
        aggregation_service.reset()
        client = PrivateAggregationClient(aggregation_service)
        values = [5, 17, 23, 42, 0, 99]
        for value in values:
            client.submit(value)
        aggregate = aggregation_service.aggregate()
        assert aggregate["sum"] == sum(values)
        assert aggregate["submissions"] == len(values)

    def test_individual_values_hidden_from_each_server(self, aggregation_service):
        """No single server's accumulator reveals the submitted values."""
        aggregation_service.reset()
        client = PrivateAggregationClient(aggregation_service, audit_before_use=False)
        client.submit(7)
        partials = [
            aggregation_service.deployment.invoke(i, "read_partial_sum", {})["value"]["partial_sum"]
            for i in range(aggregation_service.num_servers)
        ]
        # The shares are random field elements; neither equals the value, but
        # together they reconstruct it.
        assert all(partial != 7 for partial in partials)
        assert sum(partials) % FIELD_MODULUS == 7

    def test_out_of_range_value_rejected(self, aggregation_service):
        client = PrivateAggregationClient(aggregation_service, audit_before_use=False)
        with pytest.raises(ApplicationError):
            client.submit(101)
        with pytest.raises(ApplicationError):
            client.submit(-1)

    def test_many_clients_with_workload_generator(self, aggregation_service):
        aggregation_service.reset()
        workload = WorkloadGenerator(seed=7)
        values = workload.telemetry_values(50, 0, 100)
        client = PrivateAggregationClient(aggregation_service, audit_before_use=False)
        for value in values:
            client.submit(value)
        assert aggregation_service.aggregate()["sum"] == sum(values)

    def test_reset_clears_accumulators(self, aggregation_service):
        client = PrivateAggregationClient(aggregation_service, audit_before_use=False)
        client.submit(3)
        aggregation_service.reset()
        assert aggregation_service.aggregate() == {"sum": 0, "submissions": 0}

    def test_requires_two_servers(self):
        with pytest.raises(ApplicationError):
            PrivateAggregationDeployment(num_servers=1)

    def test_audit_passes(self, aggregation_service):
        client = PrivateAggregationClient(aggregation_service)
        assert client.audit().ok


class TestObliviousDns:
    def test_resolution_round_trip(self, dns_service):
        client = ObliviousDnsClient(dns_service)
        response = client.resolve("host1.example.com")
        assert response.found
        assert response.address == "192.0.2.10"

    def test_missing_name(self, dns_service):
        client = ObliviousDnsClient(dns_service, audit_before_use=False)
        response = client.resolve("missing.example.com")
        assert not response.found
        assert response.address is None

    def test_proxy_never_sees_query_names(self, dns_service):
        """The proxy's entire observable state contains no query names."""
        client = ObliviousDnsClient(dns_service, audit_before_use=False)
        client.resolve("host2.example.com")
        proxy_domain = dns_service.deployment.domains[0]
        proxy_state = proxy_domain.framework._python_sandbox.state
        from repro.wire.codec import encode

        assert b"host2.example.com" not in encode(proxy_state)
        assert proxy_state["forwarded"] >= 1

    def test_resolver_counts_queries(self, dns_service):
        before = dns_service.resolver_observations()["resolved"]
        ObliviousDnsClient(dns_service, audit_before_use=False).resolve("host1.example.com")
        assert dns_service.resolver_observations()["resolved"] == before + 1

    def test_proxy_counts_forwarded(self, dns_service):
        before = dns_service.proxy_observations()["forwarded"]
        ObliviousDnsClient(dns_service, audit_before_use=False).resolve("host1.example.com")
        assert dns_service.proxy_observations()["forwarded"] == before + 1

    def test_audit_passes(self, dns_service):
        client = ObliviousDnsClient(dns_service)
        proxy_report, resolver_report = client.audit()
        assert proxy_report.ok and resolver_report.ok

    def test_load_more_records(self, dns_service):
        assert dns_service.load_records({"new.example.org": "198.51.100.7"}) == 1
        client = ObliviousDnsClient(dns_service, audit_before_use=False)
        assert client.resolve("new.example.org").address == "198.51.100.7"

    def test_tampered_envelope_rejected(self, dns_service):
        from repro.crypto.keys import SigningKey
        from repro.crypto.hashes import hkdf, hmac_sha256
        from repro.crypto.secp256k1 import SECP256K1
        from repro.wire.codec import encode

        ephemeral = SigningKey.generate()
        shared = SECP256K1.multiply(dns_service.resolver_public_key.point, ephemeral.scalar)
        key = hkdf(SECP256K1.encode_point(shared), info=b"repro/odoh/key", length=32)
        plaintext = encode({"name": "host1.example.com", "padding": b"\x00" * 16})
        stream = hkdf(key, info=b"repro/odoh/query-stream", length=len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        envelope = {
            "ciphertext": ciphertext,
            "ephemeral_key": ephemeral.verifying_key().to_bytes(),
            "tag": hmac_sha256(key, ciphertext + b"tampered"),
        }
        with pytest.raises(ApplicationError):
            dns_service.handle_query(envelope)

    def test_malformed_envelope_fails_as_application_error(self, dns_service,
                                                           monkeypatch):
        """A ``KeyError`` from decrypting the relayed envelope (a missing
        field) surfaces as the typed ``ApplicationError`` the batched and
        concurrent paths raise, not as a bare ``KeyError``."""
        def missing_field(envelope):
            raise KeyError("ciphertext")

        monkeypatch.setattr(dns_service, "_decrypt_query", missing_field)
        client = ObliviousDnsClient(dns_service, audit_before_use=False)
        with pytest.raises(ApplicationError):
            client.resolve("host1.example.com")

    def test_hot_shared_key_survives_cache_size_inserts(self):
        """Regression: a re-used ephemeral key must survive eviction pressure.

        The shared-key cache used to evict in pure FIFO insertion order, so a
        hot key — one the resolver kept deriving the same ECDH secret for on
        every query — aged out after ``cache_size`` inserts of *other* keys
        no matter how recently it was used, silently re-paying the point
        multiplication on the hottest path. The cache is LRU now: a key
        touched between inserts must still be resident after ``cache_size``
        strangers arrive, and derivation must not have re-run for it.
        """
        from repro.crypto.keys import SigningKey
        from repro.crypto.secp256k1 import SECP256K1

        service = ObliviousDnsDeployment(records={"a.example.com": "192.0.2.1"})
        service._shared_key_cache_size = 8
        cache_size = service._shared_key_cache_size

        hot = SigningKey.generate().verifying_key().to_bytes()
        hot_key = service._shared_key(hot)
        for index in range(cache_size):
            stranger = SECP256K1.encode_point(
                SECP256K1.multiply(SECP256K1.generator, 1000 + index))
            service._shared_key(stranger)
            # The re-use that must refresh recency: same bytes object back
            # means the cached entry answered, not a fresh derivation.
            assert service._shared_key(hot) is hot_key
        assert hot in service._shared_key_cache
        assert len(service._shared_key_cache) <= cache_size
