"""Unit tests for the abortable one-crossing barrier."""

import sys
import threading
import time

import pytest

from repro.errors import CommunicationError, ConfigurationError, WorkerAborted
from repro.machine.barrier import AbortableBarrier, departure_error


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


class TestDeparture:
    """A party that departs (its rank returned) can fill no later cohort."""

    def test_depart_wakes_parked_parties_naming_the_departed_rank(self):
        b = AbortableBarrier(3)
        errors = {}

        def waiter(i):
            try:
                b.wait(timeout=10, party=i)
            except CommunicationError as exc:
                errors[i] = str(exc)

        threads = [threading.Thread(target=waiter, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        wait_until_parked(b, 2)
        b.depart(2)
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert sorted(errors) == [0, 1]
        for i, msg in errors.items():
            assert msg.startswith(f"rank {i} waits")
            assert "rank 2 already returned" in msg

    def test_departure_is_sticky_for_later_arrivals(self):
        b = AbortableBarrier(2)
        b.depart(1)
        for _ in range(2):
            t0 = time.monotonic()
            with pytest.raises(CommunicationError, match="rank 1 already"):
                b.wait(timeout=5, party=0)
            assert time.monotonic() - t0 < 1.0, "must not wait for the timeout"

    def test_departure_does_not_run_the_action(self):
        b = AbortableBarrier(2)
        ran = []
        caught = []

        def waiter(i):
            try:
                b.wait(timeout=10, action=lambda: ran.append(i), party=i)
            except CommunicationError:
                caught.append(i)

        t = threading.Thread(target=waiter, args=(0,))
        t.start()
        wait_until_parked(b, 1)
        b.depart(1)
        t.join(timeout=5)
        assert caught == [0]
        assert ran == []

    def test_abort_outranks_departure(self):
        # A rank that raised is the root cause; a rank that returned
        # meanwhile must not mask it with a desync report.
        b = AbortableBarrier(3)
        b.depart(2)
        b.abort()
        with pytest.raises(WorkerAborted):
            b.wait(timeout=1, party=0)

    def test_departures_after_the_closing_cohort_break_nobody(self):
        # The end of every SPMD program: the last collective closes, then
        # each rank returns and departs while its siblings may still be on
        # their way out of the barrier with the outcome.
        n, rounds = 4, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(rounds):
                b = AbortableBarrier(n)
                got = [None] * n

                def rank(i, b=b, got=got):
                    got[i] = b.wait(timeout=10, action=lambda: "closed",
                                    party=i)
                    b.depart(i)

                run_threads(n, rank)
                assert got == ["closed"] * n
        finally:
            sys.setswitchinterval(interval)

    def test_departure_error_names_every_departed_rank_in_order(self):
        msg = str(departure_error(0, [3, 1]))
        assert msg.startswith("rank 0 waits")
        assert "rank 1, rank 3 already returned" in msg
