"""The op executors: one wave generator run inline, batched or on the loop."""

import pytest

from repro.errors import KeyMigratingError, RpcError
from repro.net.eventloop import Sleep
from repro.net.latency import lan_profile
from repro.net.transport import Network
from repro.service import ServiceClient
from repro.service.waves import (
    MIGRATION_RETRY_DELAY,
    Wave,
    run_batched,
    run_event,
    run_inline,
)

from tests.service.test_service_plane import make_plane


def one_wave(wave):
    """An op that yields ``wave`` and returns the outcomes it got back."""
    return (yield wave)


def networked_plane(domains=3):
    plane = make_plane(shards=1, domains=domains)
    network = Network(clock=plane.clock, default_latency=lan_profile())
    plane.route_via_network(network, attempts=1)
    return plane, network


class TestRunInline:
    def test_need_k_wave_skips_dead_domains(self):
        plane, network = networked_plane()
        session = ServiceClient(plane, audit_policy="never")
        for domain_index in range(3):
            session.invoke("k", domain_index, "put", {"key": "k", "value": domain_index})
        network.crash(plane.primary.domains[0].domain_id)
        wave = Wave([("k", domain_index, "get", {"key": "k"})
                     for domain_index in range(3)], need=2)
        outcomes = run_inline(plane, one_wave(wave))
        answers = [domain_index for domain_index, outcome in enumerate(outcomes)
                   if wave.ok(outcome)]
        assert answers == [1, 2]

    def test_all_of_wave_stops_at_first_failure(self):
        plane, network = networked_plane()
        network.crash(plane.primary.domains[1].domain_id)
        outcomes = run_inline(plane, one_wave(Wave([
            ("k", domain_index, "put", {"key": "k", "value": domain_index})
            for domain_index in range(3)])))
        assert outcomes[0]["value"]["stored"]
        assert isinstance(outcomes[1], Exception)
        assert outcomes[2] is None
        # Domain 2 was never asked.
        assert plane.invoke("k", 2, "get", {"key": "k"})["value"]["count"] == 0

    def test_all_of_wave_stops_at_first_refusal(self):
        plane, _ = networked_plane()
        outcomes = run_inline(plane, one_wave(Wave(
            [("k", domain_index, "get", {"key": "k"}) for domain_index in range(3)],
            accept=lambda result: result["value"]["value"] is not None)))
        assert outcomes[0] is not None and outcomes[1:] == [None, None]

    def test_resolves_the_key_once_per_wave(self, monkeypatch):
        plane, _ = networked_plane()
        lookups = []
        real_shard_for = plane.ring.shard_for
        monkeypatch.setattr(plane.ring, "shard_for",
                            lambda key: lookups.append(key) or real_shard_for(key))
        run_inline(plane, one_wave(Wave([
            ("k", domain_index, "put", {"key": "k", "value": 1})
            for domain_index in range(3)])))
        assert lookups == ["k"]


class RecordingPlane:
    """A plane stand-in: records each scatter and fails chosen calls."""

    def __init__(self, failing=()):
        self.failing = set(failing)  # (key, domain_index) pairs
        self.scatters = []

    def scatter(self, calls):
        calls = list(calls)
        self.scatters.append([(key, domain) for key, domain, _, _ in calls])
        return [RpcError("down") if (key, domain) in self.failing
                else {"value": (key, domain)}
                for key, domain, _, _ in calls]

    def begin_scatter(self, calls):
        return ScriptedScatter(self.scatter(calls))


def quorum_op(key, need=2, candidates=3):
    wave = Wave([(key, domain, "get", {}) for domain in range(candidates)],
                need=need)
    outcomes = yield wave
    return [domain for domain, outcome in enumerate(outcomes) if wave.ok(outcome)]


class TestRunBatched:
    def test_one_op_major_scatter_per_round_tops_up_only_short_ops(self):
        plane = RecordingPlane(failing={("b", 0)})
        results = run_batched(plane, [quorum_op("a"), quorum_op("b"),
                                      quorum_op("c")])
        assert plane.scatters == [
            [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("c", 0), ("c", 1)],
            [("b", 2)],
        ]
        assert results == [[0, 1], [1, 2], [0, 1]]

    def test_top_up_asks_as_many_as_still_short(self):
        plane = RecordingPlane(failing={("a", 0), ("a", 1)})
        results = run_batched(plane, [quorum_op("a", need=2, candidates=5)])
        assert plane.scatters == [[("a", 0), ("a", 1)], [("a", 2), ("a", 3)]]
        assert results == [[2, 3]]

    def test_ops_advance_in_lockstep_and_fail_alone(self):
        plane = RecordingPlane(failing={("b", 0)})

        def two_waves(key):
            first = yield Wave([(key, 0, "put", {})])
            if isinstance(first[0], Exception):
                raise first[0]
            second = yield Wave([(key, 1, "get", {})])
            return second[0]["value"]

        results = run_batched(plane, [two_waves("a"), two_waves("b"),
                                      two_waves("c")])
        assert plane.scatters == [[("a", 0), ("b", 0), ("c", 0)],
                                  [("a", 1), ("c", 1)]]
        assert results[0] == ("a", 1) and results[2] == ("c", 1)
        assert isinstance(results[1], RpcError)

    def test_sign_transactions_fails_over_past_a_crashed_signer(self):
        from repro.apps.threshold_sign import CustodyClient, CustodyDeployment

        service = CustodyDeployment(threshold=2, num_signers=3,
                                    keygen_seed=b"wavetest")
        network = Network(clock=service.deployment.clock,
                          default_latency=lan_profile())
        service.deployment.route_via_network(network, attempts=1)
        network.crash(service.deployment.domains[1].domain_id)
        client = CustodyClient(service, audit_before_use=False)
        scatters = []
        real_scatter = service.plane.scatter
        service.plane.scatter = lambda calls: (
            scatters.append([call[1] for call in calls]) or real_scatter(calls))
        transactions = client.sign_transactions([b"tx-1", b"tx-2"],
                                                signer_indices=[1, 2, 3])
        # Signers 1 and 2 in one merged wave, then signer 3 for both.
        assert scatters == [[1, 2, 1, 2], [3, 3]]
        assert [t.signer_indices for t in transactions] == [(2, 3), (2, 3)]
        assert all(client.verify(transaction) for transaction in transactions)


class ScriptedScatter:
    """What ``begin_scatter`` returns: outcomes for ``wait_event``."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def wait_event(self, timeout):
        return self.outcomes
        yield  # a generator that completes without waiting


class MigratingPlane:
    """Answers each call once with KeyMigratingError, then for real."""

    def __init__(self):
        self.seen = set()
        self.rounds = []

    def begin_scatter(self, calls):
        self.rounds.append([(key, domain) for key, domain, _, _ in calls])
        outcomes = []
        for key, domain, _, _ in calls:
            if (key, domain) in self.seen:
                outcomes.append({"value": (key, domain)})
            else:
                self.seen.add((key, domain))
                outcomes.append(KeyMigratingError(f"{key} is moving"))
        return ScriptedScatter(outcomes)


class TestRunEvent:
    def test_retries_key_migrating_error_after_a_back_off(self):
        plane = MigratingPlane()
        task = run_event(plane, one_wave(Wave([("k", 0, "get", {}),
                                               ("k", 1, "get", {})])))
        commands = []
        with pytest.raises(StopIteration) as stop:
            while True:
                commands.append(next(task))
        assert commands == [Sleep(MIGRATION_RETRY_DELAY)]
        assert plane.rounds == [[("k", 0), ("k", 1)], [("k", 0), ("k", 1)]]
        assert stop.value.value == [{"value": ("k", 0)}, {"value": ("k", 1)}]

    def test_need_k_wave_uses_the_top_up_rule(self):
        plane = RecordingPlane(failing={("k", 0)})
        task = run_event(plane, quorum_op("k", need=2, candidates=3))
        with pytest.raises(StopIteration) as stop:
            next(task)
        assert plane.scatters == [[("k", 0), ("k", 1)], [("k", 2)]]
        assert stop.value.value == [1, 2]
