"""The persistent ``pool`` backend's own contract: fork once and serve
many launches, pin shards in shared memory, survive worker death (the
generation retires, the next launch re-forks), and fall back to one-shot
inherited forks for closure programs.

Programs here are module-level on purpose: the pool ships jobs to
already-running workers by pickling, which closures cannot survive."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.errors import CommunicationError, WorkerError
from repro.machine import run_spmd
from repro.machine.backends import BACKENDS, pool as pool_module

P = 4


def _pool_workers() -> list:
    return [
        pr for pr in multiprocessing.active_children()
        if pr.name.startswith("repro-pool-")
    ]


def _fresh_pool_machine(join_timeout=None) -> repro.Machine:
    """A pool-backed machine with no live generations or stale pins."""
    BACKENDS["pool"].shutdown()
    machine = repro.Machine(n_procs=P, backend="pool")
    if join_timeout is not None:
        machine.runtime.join_timeout = join_timeout
    return machine


def _sum_shard(ctx, shard):
    total = ctx.comm.allreduce_sum(float(np.sum(shard)))
    return total


def _rank_total(ctx):
    return ctx.comm.allreduce_sum(ctx.rank)


def _kill_rank_one(ctx, shard):
    if ctx.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return ctx.comm.allreduce_sum(int(shard.size))


class TestForkOnceServeMany:
    def test_fork_count_stays_flat_across_launches(self):
        machine = _fresh_pool_machine()
        data = machine.generate(2000, seed=0)
        rank_args = [(s,) for s in data.shards]
        first = machine.run(_sum_shard, rank_args=rank_args)
        forks_after_first = machine.fork_count
        for _ in range(5):
            again = machine.run(_sum_shard, rank_args=rank_args)
            assert again.values == first.values
        assert machine.fork_count == forks_after_first, (
            "repeated launches over pinned shards must not fork"
        )
        assert machine.launch_count == 6

    def test_new_array_refetches_then_reuses(self):
        machine = _fresh_pool_machine()
        a = machine.generate(1000, seed=1)
        machine.run(_sum_shard, rank_args=[(s,) for s in a.shards])
        baseline = machine.fork_count
        # Unseen arrays are not in the live generation's pin table: the
        # pool re-forks once, then serves both arrays without forking.
        b = machine.generate(1000, seed=2)
        machine.run(_sum_shard, rank_args=[(s,) for s in b.shards])
        assert machine.fork_count == baseline + 1
        machine.run(_sum_shard, rank_args=[(s,) for s in a.shards])
        machine.run(_sum_shard, rank_args=[(s,) for s in b.shards])
        assert machine.fork_count == baseline + 1

    @pytest.mark.parametrize("readonly_view", [False, True],
                             ids=["array", "readonly-view"])
    @pytest.mark.parametrize("pos", [0, 1, -1],
                             ids=["first", "interior", "last"])
    def test_in_place_mutation_is_not_served_stale(self, pos, readonly_view):
        machine = _fresh_pool_machine()
        shards = [np.arange(101.0) + r for r in range(P)]
        args = shards
        if readonly_view:  # read-only, but its memory is still writable
            args = [s.view() for s in shards]
            for a in args:
                a.flags.writeable = False
        first = machine.run(_sum_shard, rank_args=[(a,) for a in args])
        shards[0][pos] = 5000.0
        second = machine.run(_sum_shard, rank_args=[(a,) for a in args])
        expected = float(sum(float(s.sum()) for s in shards))
        assert second.values[0] == expected
        assert second.values[0] != first.values[0]

    def test_closure_program_falls_back_per_launch(self):
        machine = _fresh_pool_machine()
        data = machine.generate(800, seed=3)
        offset = 2.5

        def prog(ctx, shard):  # closure: cannot reach live workers
            return float(np.sum(shard)) + offset

        before = machine.fork_count
        res = machine.run(prog, rank_args=[(s,) for s in data.shards])
        assert res.backend == "pool"
        assert machine.fork_count == before + 1
        res2 = machine.run(prog, rank_args=[(s,) for s in data.shards])
        assert res2.values == res.values
        assert machine.fork_count == before + 2

    def test_single_rank_takes_inline_path(self):
        BACKENDS["pool"].shutdown()
        machine = repro.Machine(n_procs=1, backend="pool")
        # fork_count is cumulative on the shared backend: assert the delta.
        before = machine.fork_count
        data = machine.distribute(np.array([4.0, 2.0, 9.0]))
        rep = data.select(2)
        assert rep.value == 4.0
        assert rep.backend == "pool"
        assert machine.fork_count == before


class TestWorkerDeath:
    def test_sigkilled_worker_surfaces_and_pool_recovers(self):
        machine = _fresh_pool_machine(join_timeout=30.0)
        data = machine.generate(1200, seed=4)
        rank_args = [(s,) for s in data.shards]
        machine.run(_sum_shard, rank_args=rank_args)  # warm generation
        with pytest.raises(WorkerError) as ei:
            machine.run(_kill_rank_one, rank_args=rank_args)
        assert ei.value.rank == 1
        assert ei.value.__cause__ is ei.value.cause
        assert "died with exit code" in str(ei.value.cause)
        # The generation retired; the next launch re-forks and answers.
        forks = machine.fork_count
        again = machine.run(_sum_shard, rank_args=rank_args)
        assert machine.fork_count == forks + 1
        expected = float(sum(float(s.sum()) for s in data.shards))
        assert again.values[0] == expected

    def test_externally_killed_idle_worker_triggers_refork(self):
        machine = _fresh_pool_machine()
        data = machine.generate(900, seed=5)
        rank_args = [(s,) for s in data.shards]
        machine.run(_sum_shard, rank_args=rank_args)
        victim = _pool_workers()[0]
        victim.terminate()
        victim.join(timeout=5.0)
        forks = machine.fork_count
        res = machine.run(_sum_shard, rank_args=rank_args)
        assert machine.fork_count == forks + 1
        expected = float(sum(float(s.sum()) for s in data.shards))
        assert res.values[0] == expected


def _combine_unpicklable(ctx, shard):
    class Local:  # local classes cannot pickle, so cannot cross processes
        pass

    return ctx.comm.combine(Local(), lambda a, b: a)


class TestUnpicklablePayloads:
    """Deposits are pickled eagerly in the sending rank. Without that,
    ``multiprocessing``'s queue feeder thread drops the message silently
    and every peer stalls until the launch timeout."""

    @pytest.mark.parametrize("backend", ["process", "pool"])
    def test_fails_fast_with_clear_cause(self, backend):
        if backend == "pool":
            machine = _fresh_pool_machine()
        else:
            machine = repro.Machine(n_procs=P, backend="process")
        data = machine.generate(400, seed=8)
        rank_args = [(s,) for s in data.shards]
        t0 = time.monotonic()
        with pytest.raises(WorkerError) as ei:
            machine.run(_combine_unpicklable, rank_args=rank_args)
        assert time.monotonic() - t0 < 30.0, (
            "unpicklable payload must abort the launch, not stall it"
        )
        assert isinstance(ei.value.cause, CommunicationError)
        assert "cannot cross the process boundary" in str(ei.value.cause)
        # The failure is clean: the next launch answers normally.
        res = machine.run(_sum_shard, rank_args=rank_args)
        expected = float(sum(float(s.sum()) for s in data.shards))
        assert res.values[0] == expected


class TestLifecycle:
    def test_shutdown_reaps_workers_and_pool_stays_usable(self):
        machine = _fresh_pool_machine()
        data = machine.generate(700, seed=6)
        rank_args = [(s,) for s in data.shards]
        machine.run(_sum_shard, rank_args=rank_args)
        assert len(_pool_workers()) == P
        BACKENDS["pool"].shutdown()
        deadline = time.monotonic() + 5.0
        while _pool_workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _pool_workers(), "shutdown must reap every worker"
        forks = machine.fork_count
        res = machine.run(_sum_shard, rank_args=rank_args)
        assert machine.fork_count == forks + 1
        assert len(res.values) == P

    def test_fork_count_zero_for_stateless_backends(self):
        machine = repro.Machine(n_procs=P, backend="threaded")
        data = machine.generate(500, seed=7)
        data.select(3)
        assert machine.fork_count == 0

    def test_live_workers_capped_by_retiring_lru_generations(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "MAX_LIVE_WORKERS", 6)
        BACKENDS["pool"].shutdown()
        backend = pool_module.PoolBackend()
        try:
            live = []
            for p in (2, 3, 4):
                run_spmd(_rank_total, p, backend=backend)
                live.append(len(_pool_workers()))
            # p=4 would make 9: both older generations retire, LRU first.
            assert live == [2, 5, 4]
            forks = backend.fork_count
            run_spmd(_rank_total, 2, backend=backend)
            assert backend.fork_count == forks + 1, "p=2 was retired"
            assert len(_pool_workers()) == 6
        finally:
            backend.shutdown()

    def test_launch_above_the_cap_retires_every_other_generation(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "MAX_LIVE_WORKERS", 3)
        BACKENDS["pool"].shutdown()
        backend = pool_module.PoolBackend()
        try:
            assert run_spmd(_rank_total, 2, backend=backend).values == [1, 1]
            assert len(_pool_workers()) == 2
            res = run_spmd(_rank_total, 4, backend=backend)
            assert res.values == [6] * 4
            # p=4 alone passes the cap: it still runs, on its own.
            assert len(_pool_workers()) == 4
            assert backend.fork_count == 2
        finally:
            backend.shutdown()
