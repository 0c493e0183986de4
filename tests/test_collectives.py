"""Collectives: semantic correctness + the paper's exact cost formulas."""

import operator
import threading

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, RankMismatchError, WorkerError
from repro.machine import CostModel, collectives, payload_words, run_spmd
from repro.machine.barrier import AbortableBarrier
from repro.machine.collectives import CollectiveEngine, SharedRendezvous
from repro.machine.cost_model import ComputeCosts

# A cost model with easy numbers for hand-checking formulas.
EASY = CostModel(
    tau=1.0,
    mu=0.01,
    compute=ComputeCosts(
        partition=0, select_deterministic=0, select_randomized=0,
        sort_per_cmp=0, scan=0, binary_search_step=0, bucket_level=0,
        rng_draw=0,
    ),
    name="easy",
)


class NegativeSized:
    """Module-level so it pickles: queue backends ship deposits across
    processes, and the point of the bad-sizer test is the *pricing* error,
    not a transport one."""

    def __sim_words__(self):
        return -3


class TestPayloadWords:
    def test_none_is_zero(self):
        assert payload_words(None) == 0.0

    def test_scalar_is_one(self):
        assert payload_words(3) == 1.0
        assert payload_words(2.5) == 1.0
        assert payload_words(np.float64(1.0)) == 1.0

    def test_array_counts_8byte_words(self):
        assert payload_words(np.zeros(10, dtype=np.float64)) == 10.0
        assert payload_words(np.zeros(10, dtype=np.int32)) == 5.0

    def test_sequence_sums(self):
        assert payload_words([1, 2.0, np.zeros(3)]) == 5.0

    def test_bytes(self):
        assert payload_words(b"x" * 16) == 2.0

    def test_sim_words_sizer_consulted(self):
        class Sized:
            def __sim_words__(self):
                return 7

        assert payload_words(Sized()) == 7.0
        assert payload_words([Sized(), Sized()]) == 14.0

    @pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), float("inf")])
    def test_sim_words_rejects_bad_numbers(self, bad):
        class Sized:
            def __init__(self, v):
                self._v = v

            def __sim_words__(self):
                return self._v

        with pytest.raises(ConfigurationError, match="__sim_words__"):
            payload_words(Sized(bad))

    @pytest.mark.parametrize("bad", ["ten", None, object(), [1, 2]])
    def test_sim_words_rejects_non_numeric(self, bad):
        class Sized:
            def __init__(self, v):
                self._v = v

            def __sim_words__(self):
                return self._v

        with pytest.raises(ConfigurationError, match="__sim_words__"):
            payload_words(Sized(bad))

    def test_bad_sizer_surfaces_from_inside_a_collective(self):
        """A mispriced payload aborts the launch with a clear error
        instead of silently corrupting every simulated time after it."""

        def prog(ctx):
            ctx.comm.combine(NegativeSized(), lambda a, b: a)

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 2)
        assert isinstance(ei.value.cause, ConfigurationError)


class TestSemantics:
    def test_broadcast_delivers_roots_value(self):
        def prog(ctx):
            return ctx.comm.broadcast("hello" if ctx.rank == 2 else None, root=2)

        res = run_spmd(prog, 5)
        assert res.values == ["hello"] * 5

    def test_combine_allreduce(self):
        def prog(ctx):
            return ctx.comm.combine(ctx.rank + 1, operator.add)

        res = run_spmd(prog, 4)
        assert res.values == [10, 10, 10, 10]

    def test_combine_with_custom_op(self):
        def prog(ctx):
            return ctx.comm.combine(ctx.rank, max)

        assert run_spmd(prog, 6).values == [5] * 6

    def test_prefix_inclusive(self):
        def prog(ctx):
            return ctx.comm.prefix_sum(ctx.rank + 1)

        assert run_spmd(prog, 4).values == [1, 3, 6, 10]

    def test_prefix_exclusive(self):
        def prog(ctx):
            return ctx.comm.exscan_sum(ctx.rank + 1)

        assert run_spmd(prog, 4).values == [0, 1, 3, 6]

    def test_gather_root_only(self):
        def prog(ctx):
            return ctx.comm.gather(ctx.rank * 2, root=1)

        res = run_spmd(prog, 3)
        assert res.values[1] == [0, 2, 4]
        assert res.values[0] is None and res.values[2] is None

    def test_global_concat_everywhere(self):
        def prog(ctx):
            return ctx.comm.global_concat(chr(ord("a") + ctx.rank))

        assert run_spmd(prog, 3).values == [["a", "b", "c"]] * 3

    def test_alltoallv_transposes(self):
        def prog(ctx):
            sends = [np.array([ctx.rank * 10 + d]) for d in range(ctx.size)]
            recv = ctx.comm.alltoallv(sends)
            return [int(r[0]) for r in recv]

        res = run_spmd(prog, 4)
        for d in range(4):
            assert res.values[d] == [s * 10 + d for s in range(4)]

    def test_alltoallv_none_slots(self):
        def prog(ctx):
            sends = [None] * ctx.size
            if ctx.rank == 0:
                sends[1] = np.arange(3)
            recv = ctx.comm.alltoallv(sends)
            return [None if r is None else r.sum() for r in recv]

        res = run_spmd(prog, 3)
        assert res.values[1][0] == 3
        assert res.values[2] == [None, None, None]

    def test_gather_concat_array(self):
        def prog(ctx):
            arr = np.full(ctx.rank, ctx.rank, dtype=np.int64)
            g = ctx.comm.gather_concat_array(arr)
            return None if g is None else g.tolist()

        res = run_spmd(prog, 4)
        assert res.values[0] == [1, 2, 2, 3, 3, 3]

    def test_pairwise_exchange_swaps(self):
        def prog(ctx):
            partner = ctx.rank ^ 1
            return ctx.comm.pairwise_exchange(partner, f"from{ctx.rank}")

        res = run_spmd(prog, 4)
        assert res.values == ["from1", "from0", "from3", "from2"]

    def test_pairwise_exchange_with_idle_rank(self):
        def prog(ctx):
            if ctx.rank == 2:
                return ctx.comm.pairwise_exchange(None, None)
            partner = ctx.rank ^ 1
            return ctx.comm.pairwise_exchange(partner, ctx.rank)

        res = run_spmd(prog, 3)
        assert res.values == [1, 0, None]


class TestCostFormulas:
    """Each primitive advances the clock by exactly the Section 2.2 cost."""

    def run_time(self, prog, p):
        return run_spmd(prog, p, cost_model=EASY).simulated_time

    def test_broadcast_cost(self):
        # (tau + mu*m) * ceil(log2 p); m = 10 words, p = 8 -> 3 rounds.
        def prog(ctx):
            ctx.comm.broadcast(np.zeros(10) if ctx.rank == 0 else None, root=0)

        assert self.run_time(prog, 8) == pytest.approx((1.0 + 0.01 * 10) * 3)

    def test_combine_cost(self):
        def prog(ctx):
            ctx.comm.combine(1.0)

        assert self.run_time(prog, 8) == pytest.approx((1.0 + 0.01) * 3)

    def test_prefix_cost(self):
        def prog(ctx):
            ctx.comm.prefix_sum(1)

        assert self.run_time(prog, 4) == pytest.approx((1.0 + 0.01) * 2)

    def test_gather_cost(self):
        # tau*ceil(log2 p) + mu*m*(p-1); m = 5 words, p = 4.
        def prog(ctx):
            ctx.comm.gather(np.zeros(5), root=0)

        assert self.run_time(prog, 4) == pytest.approx(1.0 * 2 + 0.01 * 5 * 3)

    def test_global_concat_cost(self):
        def prog(ctx):
            ctx.comm.global_concat(np.zeros(5))

        assert self.run_time(prog, 4) == pytest.approx(1.0 * 2 + 0.01 * 5 * 3)

    def test_alltoallv_cost_uses_max_traffic(self):
        # rank 0 sends 10 words to each of 3 peers (t_out = 30); everyone
        # else sends nothing. t = 30; max_msgs = 3.
        def prog(ctx):
            sends = [None] * ctx.size
            if ctx.rank == 0:
                for d in range(1, ctx.size):
                    sends[d] = np.zeros(10)
            ctx.comm.alltoallv(sends)

        assert self.run_time(prog, 4) == pytest.approx(1.0 * 3 + 2 * 0.01 * 30)

    def test_alltoallv_self_send_is_free(self):
        def prog(ctx):
            sends = [None] * ctx.size
            sends[ctx.rank] = np.zeros(100)  # local copy only
            ctx.comm.alltoallv(sends)

        assert self.run_time(prog, 4) == pytest.approx(0.0)

    def test_pairwise_round_costs_slowest_pair(self):
        # Pair (0,1) swaps 100 words vs pair (2,3) swaps 1 word:
        # the round costs tau + mu*100 for everyone.
        def prog(ctx):
            partner = ctx.rank ^ 1
            payload = np.zeros(100) if ctx.rank < 2 else np.zeros(1)
            ctx.comm.pairwise_exchange(partner, payload)

        assert self.run_time(prog, 4) == pytest.approx(1.0 + 0.01 * 100)

    def test_single_rank_collectives_are_free(self):
        def prog(ctx):
            ctx.comm.broadcast("x", root=0)
            ctx.comm.combine(1)
            ctx.comm.gather(1)

        assert self.run_time(prog, 1) == pytest.approx(0.0)

    def test_clocks_synchronise_to_slowest(self):
        # Rank 1 computes 10s before the barrier; after one collective all
        # clocks read >= 10s + cost.
        def prog(ctx):
            if ctx.rank == 1:
                ctx.charge_compute(10.0)
            ctx.comm.combine(1)
            return ctx.clock.now

        res = run_spmd(prog, 4, cost_model=EASY)
        expect = 10.0 + (1.0 + 0.01) * 2
        assert all(v == pytest.approx(expect) for v in res.values)


class TestMismatchDetection:
    def test_diverged_collectives_raise(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.combine(1)
            else:
                ctx.comm.broadcast(1, root=0)

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 2)
        assert isinstance(ei.value.cause, RankMismatchError)

    def test_inconsistent_pairing_raises(self):
        def prog(ctx):
            # 0 pairs with 1, but 1 pairs with 2: invalid.
            partner = {0: 1, 1: 2, 2: 0}[ctx.rank]
            ctx.comm.pairwise_exchange(partner, ctx.rank)

        with pytest.raises(WorkerError):
            run_spmd(prog, 3)

    def test_alltoallv_wrong_slot_count(self):
        def prog(ctx):
            ctx.comm.alltoallv([None])  # wrong length

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 3)
        assert isinstance(ei.value.cause, RankMismatchError)


def _diverging_program(ctx):
    """Rank 0 issues a different collective; every rank reports what it
    caught (the run itself then completes)."""
    try:
        if ctx.rank == 0:
            ctx.comm.combine(1)
        else:
            ctx.comm.broadcast(1, root=0)
    except RankMismatchError as exc:
        return str(exc)
    return None


def _mispaired_program(ctx):
    partner = {0: 1, 1: 2, 2: 0}[ctx.rank]
    try:
        ctx.comm.pairwise_exchange(partner, ctx.rank)
    except RankMismatchError as exc:
        return str(exc)
    return None


class TestRendezvousContract:
    """One crossing per collective: the closing runs once (shared memory)
    or once per rank (message passing), and its diagnostics reach every
    rank either way."""

    BACKENDS = ["serial", "threaded", "process"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_op_mismatch_is_raised_by_every_rank(self, backend, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        res = run_spmd(_diverging_program, 3, backend=backend)
        assert res.values[0] is not None
        assert "ranks disagree on collective" in res.values[0]
        assert res.values == [res.values[0]] * 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lockstep_diagnostic_is_raised_by_every_rank(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "lockstep")
        res = run_spmd(_diverging_program, 3, backend=backend)
        assert res.values[0] is not None
        assert "lockstep verification failed" in res.values[0]
        assert "divergent ranks: [0]" in res.values[0]
        assert res.values == [res.values[0]] * 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pairing_error_is_raised_by_every_rank(self, backend):
        res = run_spmd(_mispaired_program, 3, backend=backend)
        assert res.values[0] is not None
        assert "pairwise_exchange" in res.values[0]
        assert res.values == [res.values[0]] * 3

    def test_one_crossing_per_collective_receipt(self, monkeypatch):
        """The receipt that keeps the one-crossing gain from regressing
        silently: on one fast_randomized launch (n=2^17, p=8), every
        collective costs each rank exactly one barrier crossing, and each
        alltoallv sizes its p x p payload matrix once, not once per rank."""
        p = 8
        lock = threading.Lock()
        local = threading.local()
        counts = {"waits": 0, "exchanges": 0, "a2a_calls": 0, "a2a_words": 0}

        def bump(key):
            with lock:
                counts[key] += 1

        wait, exchange = AbortableBarrier.wait, SharedRendezvous.exchange
        alltoallv, words = CollectiveEngine.alltoallv, collectives.payload_words

        def counting_wait(self, *args, **kwargs):
            bump("waits")
            return wait(self, *args, **kwargs)

        def counting_exchange(self, *args, **kwargs):
            bump("exchanges")
            return exchange(self, *args, **kwargs)

        def counting_alltoallv(self, *args, **kwargs):
            bump("a2a_calls")
            local.in_a2a = True
            try:
                return alltoallv(self, *args, **kwargs)
            finally:
                local.in_a2a = False

        def counting_words(obj):
            if getattr(local, "in_a2a", False):
                bump("a2a_words")
            return words(obj)

        monkeypatch.setattr(AbortableBarrier, "wait", counting_wait)
        monkeypatch.setattr(SharedRendezvous, "exchange", counting_exchange)
        monkeypatch.setattr(CollectiveEngine, "alltoallv", counting_alltoallv)
        monkeypatch.setattr(collectives, "payload_words", counting_words)
        monkeypatch.delenv("REPRO_VERIFY", raising=False)

        data = repro.Machine(n_procs=p).generate(2**17, seed=3)
        k = data.n // 2
        rep = repro.select(
            data, k, algorithm="fast_randomized", backend="threaded"
        )
        assert rep.value == np.sort(data.gather())[k - 1]
        assert counts["exchanges"] > 0 and counts["exchanges"] % p == 0
        assert counts["waits"] == counts["exchanges"]
        cohorts = counts["a2a_calls"] // p
        assert cohorts > 0
        assert counts["a2a_words"] <= p * p * cohorts


class TestDeterminism:
    def test_same_program_same_simulated_time(self):
        def prog(ctx):
            rng = np.random.default_rng(ctx.rank)
            data = rng.random(100)
            ctx.charge_compute(float(data.sum()) * 1e-6)
            total = ctx.comm.combine(float(data.sum()))
            ctx.comm.gather(np.sort(data))
            return total

        r1 = run_spmd(prog, 4)
        r2 = run_spmd(prog, 4)
        assert r1.values == r2.values
        assert r1.clocks == r2.clocks
