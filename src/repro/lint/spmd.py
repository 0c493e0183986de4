"""Shared AST analyses for the SPMD rule families.

Three building blocks every rule family leans on:

* **collective-call detection** — a call is a collective when it invokes
  one of the :class:`~repro.machine.comm.Comm` collective methods on a
  comm-like receiver (``comm``, ``ctx.comm``, ``self.comm`` or a local
  alias assigned from one). Every inter-rank exchange is one of these
  collectives: there is no point-to-point ``send``/``recv``.
* **rank-taint analysis** — which local names (transitively) derive from
  ``*.rank``. Deliberately *explicit-flow only* and flow-insensitive: a
  name assigned from a rank-dependent expression anywhere in the function
  is tainted everywhere. Collective *results* are sanitizers — a value
  that went through ``combine``/``broadcast``/... is globally agreed, so
  branching on it is lockstep-safe (the taint walk does not descend into
  collective calls).
* **SPMD-scope classification** — the determinism rules only apply inside
  code that runs on simulated ranks: any function with a ``ctx`` (or
  ``kernels``/``K``) parameter, or one that issues a collective.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = [
    "COLLECTIVE_METHODS",
    "collect_comm_aliases",
    "collective_calls",
    "function_params",
    "is_collective_call",
    "is_comm_expr",
    "is_spmd_scope",
    "rank_tainted_names",
    "expr_is_rank_tainted",
]

#: Collective entry points of :class:`repro.machine.comm.Comm` (the paper's
#: six primitives, the barrier, and the numeric convenience wrappers that
#: delegate to them). All ranks must call these in lockstep.
COLLECTIVE_METHODS = frozenset(
    {
        "broadcast",
        "combine",
        "prefix_sum",
        "gather",
        "global_concat",
        "allgather",
        "alltoallv",
        "pairwise_exchange",
        "barrier",
        "allreduce_sum",
        "exscan_sum",
        "gather_concat_array",
    }
)


def function_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return set(names)


def is_comm_expr(node: ast.expr, comm_aliases: set[str]) -> bool:
    """Is ``node`` a comm-like receiver (``comm``/``ctx.comm``/alias)?"""
    if isinstance(node, ast.Name):
        return node.id == "comm" or node.id in comm_aliases
    if isinstance(node, ast.Attribute):
        return node.attr == "comm"
    return False


def collect_comm_aliases(fn: ast.AST) -> set[str]:
    """Local names bound to a comm object (``comm = ctx.comm``)."""
    aliases: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            if not is_comm_expr(node.value, aliases):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in aliases:
                    aliases.add(target.id)
                    changed = True
    return aliases


def is_collective_call(node: ast.AST, comm_aliases: set[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in COLLECTIVE_METHODS
        and is_comm_expr(node.func.value, comm_aliases)
    )


def collective_calls(
    fn: ast.AST, comm_aliases: set[str] | None = None
) -> Iterator[tuple[ast.Call, str]]:
    """Every ``(call_node, method_name)`` collective issued in ``fn``."""
    aliases = comm_aliases if comm_aliases is not None else collect_comm_aliases(fn)
    for node in ast.walk(fn):
        if is_collective_call(node, aliases):
            yield node, node.func.attr  # type: ignore[union-attr]


def is_spmd_scope(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    comm_aliases: set[str] | None = None,
) -> bool:
    """Does ``fn`` (directly) run on simulated ranks?"""
    params = function_params(fn)
    if params & {"ctx", "kernels", "K"}:
        return True
    return next(collective_calls(fn, comm_aliases), None) is not None


# ------------------------------------------------------------- rank taint


class _TaintProbe(ast.NodeVisitor):
    """Does an expression mention ``*.rank`` or a tainted name?

    Does not descend into collective calls (their results are coordinated
    across ranks — sanitized) or into nested function definitions.
    """

    def __init__(self, tainted: set[str], comm_aliases: set[str]):
        self.tainted = tainted
        self.comm_aliases = comm_aliases
        self.hit = False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "rank":
            self.hit = True
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.tainted:
            self.hit = True

    def visit_Call(self, node: ast.Call) -> None:
        if is_collective_call(node, self.comm_aliases):
            return  # sanitizer: collective results are globally agreed
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


def expr_is_rank_tainted(
    node: ast.expr, tainted: set[str], comm_aliases: set[str]
) -> bool:
    probe = _TaintProbe(tainted, comm_aliases)
    probe.visit(node)
    return probe.hit


def _assign_targets(node: ast.expr) -> Iterator[str]:
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _assign_targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _assign_targets(node.value)


def rank_tainted_names(fn: ast.AST, comm_aliases: set[str]) -> set[str]:
    """Names in ``fn`` (transitively) assigned from rank-dependent values.

    Fixpoint over direct assignments, augmented assignments, ``for``
    targets, walrus expressions and ``with ... as`` bindings. Explicit
    flows only: branch *conditions* never taint the values assigned under
    them (that would drown real findings in false positives).
    """
    tainted: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            value: ast.expr | None = None
            targets: list[str] = []
            if isinstance(node, ast.Assign):
                value = node.value
                for t in node.targets:
                    targets.extend(_assign_targets(t))
            elif isinstance(node, ast.AugAssign):
                value = node.value
                targets.extend(_assign_targets(node.target))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                targets.extend(_assign_targets(node.target))
            elif isinstance(node, ast.NamedExpr):
                value = node.value
                targets.extend(_assign_targets(node.target))
            elif isinstance(node, ast.For):
                value = node.iter
                targets.extend(_assign_targets(node.target))
            if value is None or not targets:
                continue
            if expr_is_rank_tainted(value, tainted, comm_aliases):
                new = set(targets) - tainted
                if new:
                    tainted |= new
                    changed = True
    return tainted
