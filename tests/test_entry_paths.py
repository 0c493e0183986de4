"""Every query entry path gives the same answer.

One question (rank ``k`` of one array under one plan) can enter the
library through six doors: the legacy ``repro.select``, the fluent
``data.select``, an uncached ``Session.run_select``, a deferred
``Session.select`` future, ``Session.run_multi_select([k])`` and a
``SelectionService``. All of them reach the same launch program, so they
must agree on the value, the simulated time and the iteration count, and
the value must be the ``k``-th smallest key (``np.partition`` on the
gathered keys).
"""

import asyncio

import numpy as np
import pytest

import repro
from repro.selection import ALGORITHMS

N = 5000
K = 1234
SEED = 1


def _answers(data, plan):
    """``path -> (value, simulated_time, n_iterations)`` for one query."""
    machine = data.machine
    reports = {}
    if plan.prefilter is None:
        reports["repro.select"] = repro.select(
            data, K, algorithm=plan.algorithm, seed=plan.seed
        )
    reports["data.select"] = data.select(K, plan)
    reports["Session.run_select"] = repro.Session(
        machine, cache=False
    ).run_select(data, K, plan)
    reports["Session.select"] = machine.session().select(
        data, K, plan
    ).result()

    async def served():
        async with repro.SelectionService(machine, plan, window=0) as svc:
            return await svc.select(data, K)

    reports["SelectionService.select"] = asyncio.run(served())
    answers = {
        path: (r.value, r.simulated_time, r.stats.n_iterations)
        for path, r in reports.items()
    }
    multi = machine.session().run_multi_select(data, [K], plan)
    answers["Session.run_multi_select"] = (
        multi.values[0], multi.simulated_time, multi.stats.n_iterations
    )
    return answers


@pytest.mark.parametrize("prefilter", [None, "sketch"])
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_entry_path_gives_the_same_answer(algorithm, p, prefilter):
    machine = repro.Machine(n_procs=p, topology="crossbar")
    data = machine.generate(N, seed=3)
    plan = repro.SelectionPlan(algorithm=algorithm, seed=SEED,
                               prefilter=prefilter)
    answers = _answers(data, plan)
    expected = np.partition(data.gather(), K - 1)[K - 1]
    distinct = set(answers.values())
    assert len(distinct) == 1, f"entry paths disagree: {answers}"
    value, simulated_time, _ = distinct.pop()
    assert value == expected
    assert simulated_time > 0
