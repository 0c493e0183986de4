"""Unit tests for the abortable one-crossing barrier."""

import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError, WorkerAborted
from repro.machine.barrier import AbortableBarrier


def run_threads(n, target):
    threads = [threading.Thread(target=target, args=(i,), daemon=True) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)


class TestBasics:
    def test_rejects_zero_parties(self):
        with pytest.raises(ConfigurationError):
            AbortableBarrier(0)

    def test_single_party_never_blocks(self):
        b = AbortableBarrier(1)
        for gen in range(5):
            assert b.wait(timeout=1) == gen

    def test_rendezvous_and_reuse(self):
        b = AbortableBarrier(4)
        counter = {"v": 0}
        lock = threading.Lock()
        generations = []

        def worker(i):
            for _ in range(10):
                with lock:
                    counter["v"] += 1
                gen = b.wait(timeout=10)
                if i == 0:
                    generations.append((gen, counter["v"]))
                b.wait(timeout=10)

        run_threads(4, worker)
        # After each first barrier of a round, all 4 increments are visible.
        assert [v for _, v in generations] == [4 * (i + 1) for i in range(10)]

    def test_timeout(self):
        b = AbortableBarrier(2)
        with pytest.raises(TimeoutError):
            b.wait(timeout=0.05)

    def test_timed_out_arrival_is_withdrawn(self):
        b = AbortableBarrier(2)
        with pytest.raises(TimeoutError):
            b.wait(timeout=0.05)
        # No phantom party is left behind: a lone party still waits...
        with pytest.raises(TimeoutError):
            b.wait(timeout=0.05)
        # ...and a real pair still meets, in the first generation.
        gens = []
        run_threads(2, lambda i: gens.append(b.wait(timeout=10)))
        assert gens == [0, 0]


def wait_until_parked(b, n, deadline_s=10.0):
    deadline = time.monotonic() + deadline_s
    while len(b._parked) < n:
        assert time.monotonic() < deadline, "parties never parked"
        time.sleep(0.001)


class TestCohortAction:
    def test_action_runs_once_per_generation_while_others_are_parked(self):
        # More parties than cores and a short switch interval, so arrivals,
        # closings and wake-ups interleave as finely as the GIL allows.
        n, rounds = 8, 200
        b = AbortableBarrier(n)
        lock = threading.Lock()
        entered = [0] * rounds
        left = [0] * rounds
        runs = []
        results = [[] for _ in range(n)]

        def worker(i):
            for g in range(rounds):
                def action(g=g):
                    # Every party has arrived and none has left: the runner
                    # is the last arrival and the others are parked.
                    with lock:
                        runs.append((g, entered[g], left[g]))
                    return g, threading.get_ident()

                with lock:
                    entered[g] += 1
                results[i].append(b.wait(timeout=10, action=action))
                with lock:
                    left[g] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(n, worker)
        finally:
            sys.setswitchinterval(interval)
        assert runs == [(g, n, 0) for g in range(rounds)]
        # Every party left each generation with the one product.
        assert all(r == results[0] for r in results)
        assert [g for g, _ in results[0]] == list(range(rounds))

    def test_action_error_reaches_every_party(self):
        b = AbortableBarrier(3)
        boom = ValueError("boom")
        caught = []

        def action():
            raise boom

        def worker(i):
            try:
                b.wait(timeout=10, action=action)
            except ValueError as exc:
                caught.append(exc)

        run_threads(3, worker)
        assert caught == [boom] * 3
        # The failed closing still ended its generation cleanly.
        gens = []
        run_threads(3, lambda i: gens.append(b.wait(timeout=10)))
        assert gens == [1, 1, 1]

    def test_abort_wakes_parked_parties_without_running_the_action(self):
        b = AbortableBarrier(3)
        ran = []
        outcomes = []

        def waiter(i):
            try:
                b.wait(timeout=10, action=lambda: ran.append(i))
            except WorkerAborted:
                outcomes.append(i)

        threads = [threading.Thread(target=waiter, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        wait_until_parked(b, 2)
        b.abort()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert sorted(outcomes) == [0, 1]
        assert ran == []


class TestAbort:
    def test_abort_wakes_waiters(self):
        b = AbortableBarrier(3)
        failures = []

        def waiter(i):
            try:
                b.wait(timeout=10)
            except WorkerAborted:
                failures.append(i)

        threads = [threading.Thread(target=waiter, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        b.abort()
        for t in threads:
            t.join(timeout=5)
        assert sorted(failures) == [0, 1]

    def test_abort_is_sticky(self):
        b = AbortableBarrier(1)
        b.abort()
        with pytest.raises(WorkerAborted):
            b.wait(timeout=1)
        with pytest.raises(WorkerAborted):
            b.wait(timeout=1)

    def test_aborted_flag(self):
        b = AbortableBarrier(2)
        assert not b.aborted
        b.abort()
        assert b.aborted
