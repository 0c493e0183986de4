"""RPR1xx — collective lockstep matching.

The SPMD contract every backend relies on: **all ranks issue the same
collective sequence**. A collective reached under rank-dependent control
flow desynchronises the machine — some ranks park in the rendezvous while
the rest never arrive. Every backend catches this at *runtime* once a rank
returns while another waits at a collective (and ``REPRO_VERIFY=lockstep``
catches the dynamic cases with call-site hashing); these rules catch the
statically provable cases before anything runs:

* **RPR101** — collective call lexically inside an ``if``/``elif``/ternary
  whose condition derives from ``*.rank``.
* **RPR102** — collective call inside a ``for``/``while`` whose iterable /
  condition derives from ``*.rank`` (rank-dependent trip count: ranks run
  the loop a different number of times).
* **RPR103** — rank-dependent early exit (``return``/``break``/
  ``continue`` under a rank-dependent condition) with collectives issued
  later in the function: the exiting rank skips them. A rank-dependent
  ``raise`` is *not* flagged — raising is the sanctioned failure path
  (the runtime aborts the rendezvous; siblings unwind with
  ``WorkerAborted`` instead of hanging).

Rank-conditional *values* are fine (``comm.broadcast(x if ctx.rank == root
else None, root)``); only rank-conditional *reachability* of the call is
flagged. Values that went through a collective (``combine`` results etc.)
are globally agreed and never taint.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import ModuleContext, Rule, register_rule
from ..spmd import (
    collect_comm_aliases,
    collective_calls,
    expr_is_rank_tainted,
    is_collective_call,
    rank_tainted_names,
)

__all__ = ["CollectiveInRankBranch", "CollectiveInRankLoop", "RankEarlyExit"]


def _analyze(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    aliases = collect_comm_aliases(fn)
    tainted = rank_tainted_names(fn, aliases)
    return aliases, tainted


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function definitions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _collectives_under(node: ast.AST, aliases: set[str]) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if is_collective_call(sub, aliases):
            yield sub


@register_rule
class CollectiveInRankBranch(Rule):
    code = "RPR101"
    name = "collective-in-rank-branch"
    description = (
        "collective/barrier call reachable only under a rank-dependent "
        "branch (classic SPMD deadlock)"
    )
    hint = (
        "hoist the collective out of the rank-dependent branch; pass "
        "rank-dependent *values* instead (e.g. `x if ctx.rank == root "
        "else None`)"
    )

    def check(self, module: ModuleContext):
        for fn in module.functions():
            aliases, tainted = _analyze(fn)
            for node in _own_nodes(fn):
                branches: list[ast.AST] = []
                if isinstance(node, ast.If) and expr_is_rank_tainted(
                    node.test, tainted, aliases
                ):
                    branches = [*node.body, *node.orelse]
                elif isinstance(node, ast.IfExp) and expr_is_rank_tainted(
                    node.test, tainted, aliases
                ):
                    branches = [node.body, node.orelse]
                for branch in branches:
                    for call in _collectives_under(branch, aliases):
                        yield self.finding(
                            module,
                            call,
                            f"collective `{call.func.attr}` is only reached "
                            "when a rank-dependent condition holds",
                            self.hint,
                        )


@register_rule
class CollectiveInRankLoop(Rule):
    code = "RPR102"
    name = "collective-in-rank-loop"
    description = (
        "collective/barrier call inside a loop whose trip count is "
        "rank-dependent (ranks desynchronise after the shortest loop)"
    )
    hint = (
        "make the trip count a global property (combine/broadcast it "
        "first) so every rank runs the loop the same number of times"
    )

    def check(self, module: ModuleContext):
        for fn in module.functions():
            aliases, tainted = _analyze(fn)
            for node in _own_nodes(fn):
                if isinstance(node, ast.For):
                    dependent = expr_is_rank_tainted(node.iter, tainted, aliases)
                elif isinstance(node, ast.While):
                    dependent = expr_is_rank_tainted(node.test, tainted, aliases)
                else:
                    continue
                if not dependent:
                    continue
                for part in (*node.body, *node.orelse):
                    for call in _collectives_under(part, aliases):
                        yield self.finding(
                            module,
                            call,
                            f"collective `{call.func.attr}` runs a "
                            "rank-dependent number of times",
                            self.hint,
                        )


@register_rule
class RankEarlyExit(Rule):
    code = "RPR103"
    name = "rank-dependent-early-exit"
    description = (
        "rank-dependent return/break/continue before later collectives "
        "(the exiting rank skips them and siblings hang)"
    )
    hint = (
        "restructure so every rank reaches every collective; broadcast "
        "the decision to exit instead of deciding per rank (raising is "
        "fine: it aborts the rendezvous cleanly)"
    )

    _EXITS = (ast.Return, ast.Break, ast.Continue)

    def check(self, module: ModuleContext):
        for fn in module.functions():
            aliases, tainted = _analyze(fn)
            calls = [c for c, _name in collective_calls(fn, aliases)]
            if not calls:
                continue
            last_collective_line = max(c.lineno for c in calls)
            for node in _own_nodes(fn):
                if not (
                    isinstance(node, ast.If)
                    and expr_is_rank_tainted(node.test, tainted, aliases)
                ):
                    continue
                for branch in (*node.body, *node.orelse):
                    for sub in ast.walk(branch):
                        if (
                            isinstance(sub, self._EXITS)
                            and sub.lineno < last_collective_line
                        ):
                            kind = type(sub).__name__.lower()
                            yield self.finding(
                                module,
                                sub,
                                f"rank-dependent `{kind}` skips collectives "
                                "issued later in this function",
                                self.hint,
                            )
