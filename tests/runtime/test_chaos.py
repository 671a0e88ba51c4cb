"""Deterministic fault injection: plans, injectors, lossy exchange."""

import dataclasses
import struct

import pytest

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    FaultPlan,
    ResilienceConfig,
)
from repro.centrality import exact_closeness
from repro.errors import ConfigurationError, WorkerError
from repro.graph import barabasi_albert
from repro.runtime.chaos import RECOVERY_POLICIES, FaultInjector
from repro.runtime.message import DeltaRows
from repro.runtime.supervisor import Supervisor


def fresh_engine(n=80, nprocs=4, seed=1, **cfg_kwargs):
    g = barabasi_albert(n, 2, seed=seed)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False, **cfg_kwargs)
    )
    engine.setup()
    return g, engine


LOSSY = dict(loss_prob=0.2, dup_prob=0.05, send_failure_prob=0.05)


class TestFaultPlan:
    def test_defaults_are_quiet(self):
        plan = FaultPlan()
        assert plan.crashes == ()
        assert not plan.has_message_faults
        assert plan.last_crash_step == -1

    def test_normalizes_dicts_to_sorted_tuples(self):
        plan = FaultPlan(crashes={5: 1, 2: 3}, stragglers={1: 2.0})
        assert plan.crashes == ((2, 3), (5, 1))
        assert plan.stragglers == ((1, 2.0),)

    def test_normalizes_lists(self):
        plan = FaultPlan(crashes=[(4, 0), (1, 2)], stragglers=[[0, 3.0]])
        assert plan.crashes == ((1, 2), (4, 0))
        assert plan.stragglers == ((0, 3.0),)

    def test_single_crash_helper(self):
        plan = FaultPlan.single_crash(3, 1, loss_prob=0.1)
        assert plan.crashes == ((3, 1),)
        assert plan.last_crash_step == 3
        assert plan.has_message_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_prob=-0.1),
            dict(loss_prob=1.0),
            dict(dup_prob=2.0),
            dict(send_failure_prob=-1e-9),
            dict(crashes=((-1, 0),)),
            dict(crashes=((0, -2),)),
            dict(stragglers=((0, 0.5),)),
            dict(stragglers=((-1, 2.0),)),
            dict(max_retries=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)


class TestFaultInjector:
    def test_out_of_range_crash_rank(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(FaultPlan.single_crash(0, 7), nprocs=4)

    def test_out_of_range_straggler_rank(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(FaultPlan(stragglers=((9, 2.0),)), nprocs=4)

    def test_draws_are_deterministic(self):
        plan = FaultPlan(seed=42, **LOSSY)
        a = FaultInjector(plan, nprocs=4)
        b = FaultInjector(plan, nprocs=4)
        outcomes_a = [a.send_outcome(0, 1, s) for s in range(200)]
        outcomes_b = [b.send_outcome(0, 1, s) for s in range(200)]
        assert outcomes_a == outcomes_b
        assert a.trace_bytes() == b.trace_bytes()
        assert set(outcomes_a) > {"ok"}  # some faults actually fired

    def test_quiet_plan_consumes_no_randomness(self):
        inj = FaultInjector(FaultPlan(seed=0), nprocs=2)
        assert all(
            inj.send_outcome(0, 1, s) == "ok" for s in range(50)
        )
        assert not inj.ack_lost(0, 1, 0)
        assert inj.stats.faults_injected == 0
        assert inj.events == []

    def test_straggler_events_prerecorded(self):
        inj = FaultInjector(FaultPlan(stragglers=((2, 3.0),)), nprocs=4)
        assert any(e.kind == "straggler" and e.rank == 2 for e in inj.events)


class TestLossyExchange:
    def test_exact_under_heavy_loss(self):
        g, engine = fresh_engine()
        result = engine.run(resilience=ResilienceConfig(fault_plan=FaultPlan(seed=9, **LOSSY)))
        assert result.converged
        assert result.faults_injected > 0
        assert result.retries > 0
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_trace_byte_identical_across_runs(self):
        plan = FaultPlan(
            seed=5, crashes=((2, 1),), stragglers=((0, 2.0),), **LOSSY
        )
        traces = []
        for _ in range(2):
            _g, engine = fresh_engine()
            res = engine.run(resilience=ResilienceConfig(fault_plan=plan))
            traces.append("\n".join(res.fault_events).encode())
        assert traces[0] == traces[1]
        assert len(traces[0]) > 0

    def test_different_seeds_diverge(self):
        results = []
        for seed in (1, 2):
            _g, engine = fresh_engine()
            res = engine.run(resilience=ResilienceConfig(fault_plan=FaultPlan(seed=seed, **LOSSY)))
            results.append(res.fault_events)
        assert results[0] != results[1]

    def test_straggler_slows_run_and_speed_restored(self):
        _g, baseline = fresh_engine()
        t0 = baseline.cluster.tracer.modeled_seconds
        baseline.run()
        base_elapsed = baseline.cluster.tracer.modeled_seconds - t0

        _g, slowed = fresh_engine()
        t0 = slowed.cluster.tracer.modeled_seconds
        slowed.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan(stragglers=((1, 10.0),))
            )
        )
        slow_elapsed = slowed.cluster.tracer.modeled_seconds - t0
        assert slow_elapsed > base_elapsed
        assert all(w.speed == 1.0 for w in slowed.cluster.workers)

    def test_unacked_rows_block_convergence_vote(self):
        _g, engine = fresh_engine()
        engine.run()
        w = engine.cluster.workers[0]
        assert not w.has_work()
        w.channels[1].unacked[0] = ([w.owned[0]], 1)
        assert w.has_work()
        w.channels[1].unacked.clear()

    def test_duplicate_packets_are_deduplicated(self):
        _g, engine = fresh_engine()
        engine.run()
        src, dst = 0, 1
        w = engine.cluster.workers[dst]
        v = engine.cluster.workers[src].owned[0]
        rows = DeltaRows(dense={v: engine.cluster.workers[src].dv_row(v)})
        assert w.receive_packet(src, 7, rows)
        assert not w.receive_packet(src, 7, rows)

    def test_retry_budget_exhaustion_raises(self):
        _g, engine = fresh_engine()
        engine.run()
        w = engine.cluster.workers[0]
        w.channels[1].pending.add(w.owned[0])
        # drop the channel baseline: a converged, already-sent row would
        # otherwise delta-encode to nothing and never enter a packet
        w.channels[1].sent_rows.clear()
        # never acked: each outbound_packets call is one more attempt
        w.outbound_packets(1, max_retries=2)
        w.outbound_packets(1, max_retries=2)
        w.outbound_packets(1, max_retries=2)
        with pytest.raises(WorkerError):
            w.outbound_packets(1, max_retries=2)

    def test_reset_channel_clears_both_direction_state(self):
        _g, engine = fresh_engine()
        engine.run()
        w = engine.cluster.workers[0]
        w.channels[1].pending.add(w.owned[0])
        w.channels[1].sent_rows.clear()  # force the forged row into a packet
        w.outbound_packets(1, max_retries=5)
        w.channels[1].seen_seq.add(3)
        w.reset_channel(1)
        assert w.channels[1].send_seq == 0
        assert w.channels[1].unacked == {}
        assert w.channels[1].seen_seq == set()


class TestSequencedChannelState:
    """The sequenced exchange is the default path: its per-channel state
    must stay O(1) on a reliable network and price nothing extra."""

    @staticmethod
    def _forge_send(cluster):
        """Queue one boundary row (dense) on some channel; returns
        ``(sender, dst)``."""
        w, dst = next(
            (w, r)
            for w in cluster.workers
            for r, ch in enumerate(w.channels)
            if ch.subscribed
        )
        v = min(w.channels[dst].subscribed)
        w.channels[dst].pending.add(v)
        w.channels[dst].sent_rows.pop(v, None)
        return w, dst

    def test_lossless_exchanges_leave_constant_dedup_state(self):
        _g, engine = fresh_engine(n=30, nprocs=3)
        engine.run()
        cluster = engine.cluster
        for _ in range(2000):
            w, dst = self._forge_send(cluster)
            assert cluster.exchange_boundary() == 1
        assert w.channels[dst].send_seq >= 2000
        for receiver in cluster.workers:
            assert all(len(ch.seen_seq) <= 1 for ch in receiver.channels)
        assert cluster.workers[dst].channels[w.rank].seen_floor >= 1999

    def test_abandoned_packets_do_not_stall_the_watermark(self):
        """An interrupted lossy run abandons its lost packets
        (``requeue_in_flight``); the receivers' filters must not wait for
        those sequence numbers forever."""
        _g, engine = fresh_engine()
        engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan(seed=3, loss_prob=0.5)
            ),
            step_budget=2,
        )
        engine.run()
        cluster = engine.cluster
        for _ in range(200):
            self._forge_send(cluster)
            cluster.exchange_boundary()
        for receiver in cluster.workers:
            assert all(len(ch.seen_seq) <= 1 for ch in receiver.channels)

    def test_reordered_retry_and_duplicate_still_dedup(self):
        _g, engine = fresh_engine()
        engine.run()
        src, dst = 0, 1
        w = engine.cluster.workers[dst]
        v = engine.cluster.workers[src].owned[0]
        rows = DeltaRows(dense={v: engine.cluster.workers[src].dv_row(v)})
        lost = w.channels[src].seen_floor + 1  # a packet the network dropped
        # the next packet overtakes it, and that one's ack is lost too
        assert w.receive_packet(src, lost + 1, rows, floor=lost)
        assert not w.receive_packet(src, lost + 1, rows, floor=lost)
        assert w.receive_packet(src, lost, rows, floor=lost)  # late retry
        assert not w.receive_packet(src, lost, rows, floor=lost)
        assert w.channels[src].seen_seq == {lost, lost + 1}
        # both acknowledged: the sender's floor moves past them
        assert w.receive_packet(src, lost + 2, rows, floor=lost + 2)
        assert w.channels[src].seen_seq == {lost + 2}
        assert not w.receive_packet(src, lost + 1, rows, floor=lost + 2)

    def test_reset_and_reload_clear_the_watermark(self):
        _g, engine = fresh_engine()
        engine.run()
        w = engine.cluster.workers[1]
        assert any(ch.seen_floor for ch in w.channels)
        w.reset_channel(0)
        assert w.channels[0].seen_floor == 0 and w.channels[0].seen_seq == set()
        engine.crash_worker(1)  # reloads the sub-graph
        assert [ch.seen_floor for ch in w.channels] == [0] * 4
        assert all(not ch.seen_seq for ch in w.channels)

    @staticmethod
    def _one_exchange(cluster):
        """(payload words, wire words, messages) of one exchange."""
        before = cluster.boundary_words
        rec = cluster.tracer.begin("rc_step", 0)
        cluster.exchange_boundary()
        cluster.tracer.end()
        return cluster.boundary_words - before, rec.words, rec.messages

    def test_no_plan_acks_locally_and_prices_no_ack_words(self):
        _g, engine = fresh_engine()
        cluster = engine.cluster
        assert cluster.chaos.reliable
        exchanges = 0
        while cluster.any_pending():
            payload, wire, messages = self._one_exchange(cluster)
            assert wire == payload  # not one ack word
            assert all(
                not ch.unacked for w in cluster.workers for ch in w.channels
            )
            cluster.relax_and_propagate()
            exchanges += 1 if messages else 0
        assert exchanges > 0

    def test_any_plan_keeps_the_priced_acks(self):
        _g, engine = fresh_engine()
        cluster = engine.cluster
        with Supervisor(cluster, ResilienceConfig(fault_plan=FaultPlan())):
            payload, wire, messages = self._one_exchange(cluster)
        packets = messages // 2  # every packet is answered by one ack
        assert packets > 0 and wire == payload + packets


class TestEngineIntegration:
    def test_recovery_without_plan_rejected(self):
        _g, engine = fresh_engine()
        with pytest.raises(ConfigurationError):
            engine.run(resilience=ResilienceConfig(recovery="checkpoint"))
        with pytest.raises(ConfigurationError):
            engine.run(resilience=ResilienceConfig(checkpoint_interval=4))

    def test_attach_requires_matching_nprocs(self):
        """A run context builds its injector for the cluster it enters:
        a plan naming a straggler the cluster lacks is rejected."""
        _g, engine = fresh_engine(nprocs=3)
        plan = FaultPlan(stragglers=((3, 2.0),))
        with pytest.raises(ConfigurationError):
            Supervisor(engine.cluster, ResilienceConfig(fault_plan=plan))

    def test_fault_recovery_recorded_as_phase(self):
        _g, engine = fresh_engine()
        engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(1, 2)
            )
        )
        tracer = engine.cluster.tracer
        assert len(tracer.phases("fault_recovery")) == 1
        assert tracer.phases("fault_recovery")[0].modeled_total > 0

    def test_checkpoint_recorded_as_phase(self):
        _g, engine = fresh_engine()
        engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(1, 2),
                recovery="checkpoint",
                checkpoint_interval=1,
            )
        )
        assert len(engine.cluster.tracer.phases("checkpoint")) >= 1

    def test_config_defaults_flow_through(self):
        g, engine = fresh_engine(
            resilience=ResilienceConfig(
                recovery="checkpoint", checkpoint_interval=2
            )
        )
        # a run-level group derived from the config keeps its policy
        res = engine.run(
            resilience=dataclasses.replace(
                engine.config.resilience,
                fault_plan=FaultPlan.single_crash(2, 1),
            )
        )
        assert res.recoveries == 1
        assert any("detail=checkpoint" in e for e in res.fault_events)

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(recovery="nope")
        with pytest.raises(ConfigurationError):
            ResilienceConfig(checkpoint_interval=0)

    @pytest.mark.parametrize("policy", RECOVERY_POLICIES)
    def test_all_policies_under_full_fault_mix(self, policy):
        g, engine = fresh_engine()
        plan = FaultPlan(
            seed=13,
            crashes=((1, 2), (4, 0)),
            stragglers=((3, 2.5),),
            **LOSSY,
        )
        result = engine.run(
            resilience=ResilienceConfig(fault_plan=plan, recovery=policy)
        )
        assert result.converged
        assert result.recoveries == 2
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)


class TestDeltaUnderFaults:
    """Delta packets through loss/duplication/crash must stay exact.

    A lost delta is retransmitted dense from the current DV; a duplicated
    delta is deduplicated by sequence number; a crash resets the channel
    and the recovery rewire forces dense resends.  In every case the run
    must reconverge to closeness bitwise-identical to a dense run on a
    reliable network (the oracle).
    """

    def _bits(self, closeness):
        return [
            (v, struct.pack("<d", closeness[v])) for v in sorted(closeness)
        ]

    def test_lossy_delta_matches_reliable_dense(self):
        _g, oracle = fresh_engine(wire_format="dense")
        expected = self._bits(oracle.run().closeness)

        _g, engine = fresh_engine(wire_format="delta")
        res = engine.run(
            resilience=ResilienceConfig(fault_plan=FaultPlan(seed=3, **LOSSY))
        )
        assert res.converged
        assert res.retries > 0  # losses actually forced retransmissions
        assert res.boundary_rows_sparse > 0  # deltas actually on the wire
        assert self._bits(res.closeness) == expected

    def test_crash_plus_loss_delta_matches_reliable_dense(self):
        _g, oracle = fresh_engine(wire_format="dense")
        expected = self._bits(oracle.run().closeness)

        _g, engine = fresh_engine(wire_format="delta")
        plan = FaultPlan(seed=21, crashes=((2, 1),), **LOSSY)
        res = engine.run(resilience=ResilienceConfig(fault_plan=plan))
        assert res.converged
        assert res.recoveries == 1
        assert self._bits(res.closeness) == expected

    def test_lossy_delta_trace_repeatable(self):
        runs = []
        for _ in range(2):
            _g, engine = fresh_engine(wire_format="delta")
            res = engine.run(
                resilience=ResilienceConfig(
                    fault_plan=FaultPlan(seed=8, **LOSSY)
                )
            )
            runs.append(
                (
                    self._bits(res.closeness),
                    tuple(res.fault_events),
                    res.boundary_words,
                    res.modeled_seconds,
                )
            )
        assert runs[0] == runs[1]
