"""Tests for the batched RPC layer and the RPC bugfixes that ride with it.

Covers the satellite checklist for the throughput PR: out-of-order response
matching, partial-batch retransmission under the PR-1 fault rules, at-most-once
dedup of a retransmitted batch, the unrelated-message requeue regression, the
bounded completed-id set, and decoding each response frame once when clients
share an endpoint.
"""

import pytest

from repro.errors import RpcError, TimeoutError
from repro.net.rpc import BoundedIdSet, RpcClient, RpcServer
from repro.net.transport import FaultDecision, Network
from repro.sim.faults import DropFault, DuplicateFault, FaultPlan, ReorderFault
from repro.wire.codec import decode, encode
from repro.wire.framing import frame_message, split_frames


def make_rpc_pair():
    network = Network()
    server_endpoint = network.endpoint("server")
    client_endpoint = network.endpoint("client")
    server = RpcServer(server_endpoint)
    client = RpcClient(network, client_endpoint, "server")
    return network, server, client


class TestCallMany:
    def test_batch_results_in_call_order(self):
        _, server, client = make_rpc_pair()
        server.register("add", lambda params: params["a"] + params["b"])
        calls = [("add", {"a": i, "b": 10 * i}) for i in range(20)]
        assert client.call_many(calls) == [11 * i for i in range(20)]
        assert server.requests_served == 20

    def test_batch_is_one_message_each_way(self):
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        client.call_many([("echo", i) for i in range(50)])
        assert network.stats.messages_sent == 2
        assert server.batches_served == 1

    def test_empty_batch(self):
        _, _, client = make_rpc_pair()
        assert client.call_many([]) == []

    def test_error_raises_by_default(self):
        _, server, client = make_rpc_pair()
        server.register("ok", lambda params: params)

        def explode(params):
            raise ValueError("boom")

        server.register("explode", explode)
        with pytest.raises(RpcError, match="boom"):
            client.call_many([("ok", 1), ("explode", None), ("ok", 2)])

    def test_return_errors_isolates_failures(self):
        _, server, client = make_rpc_pair()
        server.register("ok", lambda params: params)

        def explode(params):
            raise ValueError("boom")

        server.register("explode", explode)
        results = client.call_many(
            [("ok", 1), ("explode", None), ("ok", 2)], return_errors=True
        )
        assert results[0] == 1 and results[2] == 2
        assert isinstance(results[1], RpcError)

    def test_return_errors_interleaved_failures_keep_call_order(self):
        """Failures interleaved through a batch must not shift result pairing.

        Every odd-positioned call fails (server-side error) while the server
        also answers in reverse order, so any positional pairing — instead of
        id-based pairing — would misattribute errors to healthy calls.
        """
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")

        def reversed_flaky_responder(message):
            responses = []
            for frame in reversed(split_frames(message.payload)):
                request = decode(frame)
                value = request["params"]
                if value % 2 == 1:
                    envelope = {"id": request["id"], "error": f"reject {value}"}
                else:
                    envelope = {"id": request["id"], "result": value * 10}
                responses.append(frame_message(encode(envelope)))
            server_endpoint.send(message.source, b"".join(responses))

        server_endpoint.on_message = reversed_flaky_responder
        client = RpcClient(network, client_endpoint, "server")
        results = client.call_many([("check", i) for i in range(11)],
                                   return_errors=True)
        assert len(results) == 11
        for position, result in enumerate(results):
            if position % 2 == 1:
                assert isinstance(result, RpcError), (position, result)
                assert f"reject {position}" in str(result)
            else:
                assert result == position * 10, (position, result)

    def test_out_of_order_responses_match_by_id(self):
        """A server that answers a batch in reverse order must not confuse pairing."""
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")

        def reversed_responder(message):
            frames = split_frames(message.payload)
            responses = []
            for frame in reversed(frames):
                request = decode(frame)
                responses.append(frame_message(encode(
                    {"id": request["id"], "result": request["params"] * 2}
                )))
            server_endpoint.send(message.source, b"".join(responses))

        server_endpoint.on_message = reversed_responder
        client = RpcClient(network, client_endpoint, "server")
        assert client.call_many([("double", i) for i in range(10)]) == [
            2 * i for i in range(10)
        ]


class TestPartialBatchRetry:
    def test_only_unanswered_requests_are_retransmitted(self):
        """After a partial answer, the retry payload carries only pending ids."""
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")
        seen_batches = []

        def half_answering(message):
            frames = split_frames(message.payload)
            requests = [decode(frame) for frame in frames]
            seen_batches.append([request["id"] for request in requests])
            # First contact: answer only the even-positioned half of the batch.
            answerable = (requests[::2] if len(seen_batches) == 1 else requests)
            responses = [frame_message(encode({"id": r["id"], "result": r["params"]}))
                         for r in answerable]
            if responses:
                server_endpoint.send(message.source, b"".join(responses))

        server_endpoint.on_message = half_answering
        client = RpcClient(network, client_endpoint, "server")
        results = client.call_many([("echo", i) for i in range(10)], attempts=2)
        assert results == list(range(10))
        assert len(seen_batches) == 2
        # The second payload must contain exactly the five unanswered ids.
        assert seen_batches[1] == seen_batches[0][1::2]
        assert client.retries == 5

    def test_timeout_when_batch_never_answered(self):
        network = Network()
        network.endpoint("server")  # registered but never answers
        client = RpcClient(network, network.endpoint("client"), "server")
        with pytest.raises(TimeoutError):
            client.call_many([("ping", None)], attempts=2)

    def test_return_errors_turns_timeouts_into_instances(self):
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")

        first_id = []

        def answer_only_first(message):
            for frame in split_frames(message.payload):
                request = decode(frame)
                if not first_id:
                    first_id.append(request["id"])
                if request["id"] == first_id[0]:
                    server_endpoint.send(message.source, frame_message(encode(
                        {"id": request["id"], "result": "ok"}
                    )))

        server_endpoint.on_message = answer_only_first
        client = RpcClient(network, client_endpoint, "server")
        results = client.call_many([("a", None), ("b", None)], attempts=2,
                                   return_errors=True)
        assert results[0] == "ok"
        assert isinstance(results[1], TimeoutError)

    def test_batch_survives_fault_rules(self):
        """Drop/reorder/duplicate rules from the PR-1 taxonomy, at volume."""
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        plan = FaultPlan(rules=(DropFault(probability=0.15),
                                ReorderFault(probability=0.4, max_delay_s=0.01),
                                DuplicateFault(probability=0.3, copies=1)), seed=7)
        plan.install(network)
        calls = [("echo", i) for i in range(100)]
        assert client.call_many(calls, attempts=10) == list(range(100))
        # At-most-once: despite retransmissions and duplicated payloads, every
        # handler ran exactly once.
        assert server.requests_served == 100


class TestAtMostOnceBatches:
    def test_retransmitted_batch_answered_from_cache(self):
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")
        server = RpcServer(server_endpoint)
        executions = []
        server.register("record", lambda params: executions.append(params) or params)
        client = RpcClient(network, client_endpoint, "server")

        captured = []
        network.add_fault_hook(
            lambda message: captured.append(message.payload) or None
            if message.destination == "server" else None
        )
        assert client.call_many([("record", i) for i in range(8)]) == list(range(8))
        assert len(executions) == 8

        # An adversary (or a retry) delivers the identical batch payload again.
        client_endpoint.send("server", captured[0])
        network.run_until_idle()
        assert len(executions) == 8, "retransmitted batch re-executed handlers"
        assert server.duplicates_answered == 8
        # The duplicate answers are discarded by the duplicate-response filter.
        results = client.call_many([("record", 99)])
        assert results == [99]


class TestUnrelatedRequeueRegression:
    def test_multiframe_unrelated_message_requeued_once(self):
        """A parked batch for another caller must not multiply in the inbox."""
        network, server, client = make_rpc_pair()
        server.register("ping", lambda params: "pong")
        # Park one message carrying three response frames for ids nobody here
        # has completed — e.g. a batch destined for another client object
        # sharing this endpoint.
        unrelated = b"".join(
            frame_message(encode({"id": 999990 + i, "result": i})) for i in range(3)
        )
        client.endpoint.inbox.append(_fake_message(unrelated))
        assert client.call("ping") == "pong"
        copies = [message for message in client.endpoint.inbox
                  if message.payload == unrelated]
        assert len(copies) == 1, (
            f"unrelated multi-frame message requeued {len(copies)} times"
        )


def _fake_message(payload: bytes):
    from repro.net.transport import Message

    return Message(source="elsewhere", destination="client", payload=payload,
                   sent_at=0.0, deliver_at=0.0)


class TestBeginMany:
    def test_begin_sends_without_pumping(self):
        """begin_many puts the payload on the wire but delivers nothing."""
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        handle = client.begin_many([("echo", i) for i in range(5)])
        assert network.pending() == 1  # enqueued, undelivered
        assert handle.collect() == list(range(5))
        assert network.pending() == 0

    def test_collect_is_idempotent(self):
        _, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        handle = client.begin_many([("echo", 7)])
        assert handle.collect() == [7]
        assert handle.collect() == [7]
        assert server.requests_served == 1

    def test_two_servers_overlap_in_sim_time(self):
        """Split-phase scatter: service time on two servers must overlap.

        Both batches go on the wire before the network runs, so two servers
        with 10 ms/request queues finish in ~N×10 ms, not ~2N×10 ms. This is
        the mechanism shard scaling rests on.
        """
        from repro.net.rpc import ServiceTimeModel

        network = Network()
        servers = []
        for name in ("alpha", "beta"):
            endpoint = network.endpoint(name)
            server = RpcServer(endpoint,
                               service_model=ServiceTimeModel(per_request=0.01))
            server.register("work", lambda params: params)
            servers.append(server)
        client_endpoint = network.endpoint("client")
        clients = [RpcClient(network, client_endpoint, name)
                   for name in ("alpha", "beta")]
        started = network.clock.now()
        handles = [client.begin_many([("work", i) for i in range(5)])
                   for client in clients]
        for handle in handles:
            assert handle.collect() == list(range(5))
        elapsed = network.clock.now() - started
        assert 0.05 <= elapsed < 0.1, elapsed  # overlapped, not serialized


def count_response_decodes(monkeypatch) -> list:
    """Count the RPC layer's decodes of response frames (no ``method``)."""
    import repro.net.rpc as rpc_module

    decoded = []
    real_decode = rpc_module.decode

    def counting_decode(data):
        value = real_decode(data)
        if isinstance(value, dict) and "method" not in value:
            decoded.append(value.get("id"))
        return value

    monkeypatch.setattr(rpc_module, "decode", counting_decode)
    return decoded


def make_shared_endpoint(servers: int):
    """``servers`` echo servers and one client per server on one endpoint."""
    network = Network()
    client_endpoint = network.endpoint("client")
    clients = []
    for index in range(servers):
        server = RpcServer(network.endpoint(f"server-{index}"))
        server.register("echo", lambda params: params)
        clients.append(RpcClient(network, client_endpoint, f"server-{index}"))
    return network, client_endpoint, clients


class TestDecodeOnce:
    """Clients sharing an endpoint decode each response frame once.

    The first drain files every frame into the batch that owns its request
    id, so a sibling batch resolves without decoding anything again.
    """

    def test_four_batches_on_one_endpoint_decode_four_frames(self, monkeypatch):
        network, client_endpoint, clients = make_shared_endpoint(4)
        handles = [client.begin_many([("echo", index)])
                   for index, client in enumerate(clients)]
        decoded = count_response_decodes(monkeypatch)
        for index, handle in enumerate(handles):
            assert handle.collect() == [index]
        assert len(decoded) == 4, decoded
        assert client_endpoint.rpc_batches == {}
        assert not client_endpoint.inbox

    def test_first_drain_files_sibling_responses(self):
        network, _, clients = make_shared_endpoint(2)
        first, second = (client.begin_many([("echo", index)])
                         for index, client in enumerate(clients))
        assert first.collect() == [0]
        assert not second.pending
        assert second.collect() == [1]


class TestBatchTableEmptiesOnResolve:
    """Every resolved batch leaves its endpoint's id table."""

    def test_clean_collect(self):
        _, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        handle = client.begin_many([("echo", i) for i in range(3)])
        assert len(client.endpoint.rpc_batches) == 3
        assert handle.collect() == [0, 1, 2]
        assert client.endpoint.rpc_batches == {}

    def test_collect_with_dropped_response(self):
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        network.add_fault_hook(
            lambda message: FaultDecision(drop=True)
            if message.destination == "client" else None)
        results = client.begin_many([("echo", 1)]).collect(
            attempts=2, return_errors=True)
        assert isinstance(results[0], TimeoutError)
        assert client.endpoint.rpc_batches == {}

    def test_call_many_timeout(self):
        network = Network()
        network.endpoint("server")  # registered but never answers
        client = RpcClient(network, network.endpoint("client"), "server")
        with pytest.raises(TimeoutError):
            client.call_many([("ping", None)], attempts=2)
        assert client.endpoint.rpc_batches == {}

    def test_wait_event_resolution(self):
        from repro.net.eventloop import EventLoop

        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        results = []

        def task(tag):
            batch = client.begin_many([("echo", tag)])
            yield from batch.wait_event(timeout=0.05)
            results.append(batch.collect())

        loop = EventLoop(network)
        loop.spawn(task("a"))
        loop.spawn(task("b"))
        loop.run()
        assert sorted(results) == [["a"], ["b"]]
        assert client.endpoint.rpc_batches == {}

    def test_batched_workload_run(self, monkeypatch):
        from repro.sim import MultiClientWorkload

        endpoints = []
        real_init = RpcClient.__init__

        def recording_init(self, network, endpoint, server_address):
            real_init(self, network, endpoint, server_address)
            endpoints.append(endpoint)

        monkeypatch.setattr(RpcClient, "__init__", recording_init)
        report = MultiClientWorkload("keybackup", num_clients=16,
                                     ops_per_client=1, batched=True,
                                     batch_size=8, shards=2,
                                     rpc_attempts=1).run()
        assert report.succeeded == report.ops
        assert endpoints
        assert all(endpoint.rpc_batches == {} for endpoint in endpoints)


class TestBoundedIdSet:
    def test_evicts_oldest_beyond_bound(self):
        ids = BoundedIdSet(maxlen=3)
        for value in range(5):
            ids.add(value)
        assert len(ids) == 3
        assert 0 not in ids and 1 not in ids
        assert all(value in ids for value in (2, 3, 4))

    def test_duplicate_add_does_not_grow(self):
        ids = BoundedIdSet(maxlen=2)
        ids.add("a")
        ids.add("a")
        ids.add("b")
        assert len(ids) == 2 and "a" in ids and "b" in ids

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            BoundedIdSet(maxlen=0)

    def test_completed_ids_bounded_under_sustained_traffic(self):
        """Soak: the per-endpoint completed-id record must not grow without bound."""
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")
        server = RpcServer(server_endpoint)
        server.register("echo", lambda params: params)
        # Install a small bound before the client materializes the default.
        client_endpoint.rpc_completed_ids = BoundedIdSet(maxlen=32)
        client = RpcClient(network, client_endpoint, "server")
        for i in range(200):
            assert client.call("echo", i) == i
        assert len(client_endpoint.rpc_completed_ids) <= 32

    def test_batched_traffic_also_bounded(self):
        network = Network()
        server_endpoint = network.endpoint("server")
        client_endpoint = network.endpoint("client")
        server = RpcServer(server_endpoint)
        server.register("echo", lambda params: params)
        client_endpoint.rpc_completed_ids = BoundedIdSet(maxlen=16)
        client = RpcClient(network, client_endpoint, "server")
        for _ in range(10):
            client.call_many([("echo", i) for i in range(10)])
        assert len(client_endpoint.rpc_completed_ids) <= 16
