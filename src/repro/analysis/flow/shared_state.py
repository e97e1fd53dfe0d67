"""RPR3xx — shared mutable state reachable from pool workers.

The fleet engine (``repro.lab.fleet``) fans contiguous chip ranges out
to a ``ProcessPoolExecutor`` with ``pool.map(_shard_worker, jobs)`` and
promises results bit-identical for any shard count.  That promise only
holds if a worker's result never depends on state another task wrote:
everything a worker writes must be worker-owned (created inside the
task, or passed in per-task) or covered by a registered deterministic
merge (:mod:`repro.analysis.flow.merge`).  Process workers do not share
memory, but a write to module or class state still leaks between the
tasks one process runs, and the same code under a thread pool would
race outright — so the rules flag both.

This pass finds the worker entry points (the first argument of every
``pool.submit(worker, ...)`` and ``pool.map(worker, iterable)`` call in
the project), computes the set of functions reachable from them over the
approximate call graph, and inside that set flags the write shapes that
break the contract:

==========  ==========================================================
RPR301      write to a ``global``-declared name from worker-reachable
            code — every task writes the same module slot
RPR302      write to a class-level attribute (``Klass.attr = ...``) —
            shared by every instance across every worker
RPR303      write to a ``nonlocal`` name — workers race on the closure
            cell of the enclosing function
RPR304      in-place mutation of a module-level object (``LOG.append``,
            ``CACHE[k] = v``) whose type has no registered merge
RPR305      in-place mutation of a submit argument that is *shared*
            (its expression at the submit site does not depend on the
            per-task loop variable) and whose annotated type has no
            registered merge; ``map`` items are per task, so a mapped
            worker has no shared arguments
==========  ==========================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.flow.merge import MergeRegistry
from repro.analysis.flow.project import ModuleInfo, Project, dotted_name
from repro.analysis.flow.values import FunctionScope, _target_names
from repro.analysis.lint.findings import Finding, Severity

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "absorb",
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "inc",
        "insert",
        "merge",
        "merge_from",
        "observe",
        "pop",
        "popitem",
        "push",
        "remove",
        "reset",
        "reverse",
        "set",
        "setdefault",
        "sort",
        "update",
    }
)

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _finding(rule_id: str, path: str, line: int, message: str, suggestion: str) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=path,
        line=line,
        message=message,
        suggestion=suggestion,
    )


# ---------------------------------------------------------------------- #
# worker entry discovery
# ---------------------------------------------------------------------- #


@dataclass
class WorkerEntry:
    """One worker function with the submit or map site that launches it."""

    qualname: str
    submitter: str
    line: int
    #: parameter name -> annotation text, for submit args classified as
    #: shared across tasks (not derived from the per-task loop variable).
    shared_params: dict[str, str] = field(default_factory=dict)


def _loop_vars(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound by loops/comprehensions — the per-task variables."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.For, ast.AsyncFor)):
            names.update(_target_names(child.target))
        elif isinstance(child, ast.comprehension):
            names.update(_target_names(child.target))
    return names


def _mentions_any(node: ast.AST, names: set[str]) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id in names
        for child in ast.walk(node)
    )


def _worker_params(info: FunctionInfo) -> list[ast.arg]:
    args = info.node.args
    return [*args.posonlyargs, *args.args]


def find_worker_entries(project: Project, graph: CallGraph) -> list[WorkerEntry]:
    """Every ``pool.submit(worker, ...)`` and ``pool.map(worker, ...)`` target."""
    entries: list[WorkerEntry] = []
    for qualname in sorted(graph.functions):
        submitter = graph.functions[qualname]
        module = project.modules[submitter.module]
        loop_vars = _loop_vars(submitter.node)
        for node in ast.walk(submitter.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
            ):
                continue
            worker_name = dotted_name(node.args[0])
            binding = project.resolve(module, worker_name) if worker_name else None
            if binding is None or binding.kind != "function":
                continue
            if binding.target not in graph.functions:
                continue
            worker = graph.functions[binding.target]
            entry = WorkerEntry(
                qualname=worker.qualname,
                submitter=submitter.qualname,
                line=node.lineno,
            )
            # A mapped worker takes one item per task, so only submit
            # sites can pass it arguments shared across tasks.
            if node.func.attr == "submit":
                for arg_node, param in zip(node.args[1:], _worker_params(worker)):
                    if _mentions_any(arg_node, loop_vars):
                        continue  # per-task value: worker-owned
                    annotation = (
                        ast.unparse(param.annotation) if param.annotation else ""
                    )
                    entry.shared_params[param.arg] = annotation
            entries.append(entry)
    return entries


def _annotation_is_merged(annotation: str, merges: MergeRegistry) -> bool:
    return any(word in merges for word in _WORD_RE.findall(annotation))


# ---------------------------------------------------------------------- #
# per-function checks
# ---------------------------------------------------------------------- #


class _SharedStateChecker:
    """Runs the RPR301–305 checks over one worker-reachable function."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        info: FunctionInfo,
        merges: MergeRegistry,
        shared_params: dict[str, str],
        findings: list[Finding],
    ) -> None:
        self.project = project
        self.module = module
        self.info = info
        self.merges = merges
        self.shared_params = shared_params
        self.findings = findings
        self.scope = FunctionScope(info.node)

    def run(self) -> None:
        for node in self.scope._body_nodes():
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    self._check_store(node, target)
            elif isinstance(node, ast.Call):
                self._check_mutation(node)

    # -- RPR301 / RPR302 / RPR303 / RPR304 (subscript form) ------------ #

    def _check_store(self, node: ast.stmt, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.scope.global_names:
                self._emit(
                    "RPR301",
                    node.lineno,
                    f"worker-reachable {self.info.bare_name}() writes module "
                    f"global {target.id!r}",
                    "accumulate into a worker-owned object and merge in chip "
                    "order after the pool drains",
                )
            elif target.id in self.scope.nonlocal_names:
                self._emit(
                    "RPR303",
                    node.lineno,
                    f"worker-reachable {self.info.bare_name}() writes nonlocal "
                    f"{target.id!r} — workers race on the closure cell",
                    "pass state in explicitly and return results instead of "
                    "closing over mutable scope",
                )
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            receiver = target.value.id
            if receiver == "self" or self.scope.origin_of(receiver) is not None:
                return
            binding = self.project.resolve(self.module, receiver)
            if binding is not None and binding.kind == "class":
                self._emit(
                    "RPR302",
                    node.lineno,
                    f"worker-reachable {self.info.bare_name}() writes class "
                    f"attribute {receiver}.{target.attr}, shared by every "
                    "instance across workers",
                    "store per-task state on the instance or thread it "
                    "through parameters",
                )
        elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            self._check_object_write(node.lineno, target.value.id, "item assignment")

    # -- RPR304 / RPR305 (method form) --------------------------------- #

    def _check_mutation(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            return
        name = func.value.id
        if name in self.shared_params:
            if not _annotation_is_merged(self.shared_params[name], self.merges):
                self._emit(
                    "RPR305",
                    node.lineno,
                    f"worker entry {self.info.bare_name}() mutates shared "
                    f"submit argument {name!r} via .{func.attr}() with no "
                    "registered deterministic merge",
                    "pass a per-task copy, or register the type's merge in "
                    "repro.analysis.flow.merge if the merge is deterministic",
                )
            return
        self._check_object_write(node.lineno, name, f".{func.attr}()")

    def _check_object_write(self, line: int, name: str, how: str) -> None:
        if name in self.scope.params or name in self.scope.locals:
            return
        binding = self.module.bindings.get(name)
        if binding is None or binding.kind != "object":
            return
        if binding.target and self.merges.is_safe(binding.target):
            return
        type_note = f" (a {binding.target})" if binding.target else ""
        self._emit(
            "RPR304",
            line,
            f"worker-reachable {self.info.bare_name}() mutates module-level "
            f"object {name!r}{type_note} via {how} with no registered "
            "deterministic merge",
            "make the accumulator worker-owned and merge in chip order, or "
            "register its merge in repro.analysis.flow.merge",
        )

    def _emit(self, rule_id: str, line: int, message: str, suggestion: str) -> None:
        self.findings.append(
            _finding(rule_id, self.module.path, line, message, suggestion)
        )


def run_shared_state_pass(
    project: Project,
    graph: CallGraph,
    merges: MergeRegistry | None = None,
) -> list[Finding]:
    """The RPR3xx findings for a loaded project, in deterministic order."""
    merges = merges if merges is not None else MergeRegistry.default()
    entries = find_worker_entries(project, graph)
    if not entries:
        return []
    shared_by_worker: dict[str, dict[str, str]] = {}
    for entry in entries:
        shared_by_worker.setdefault(entry.qualname, {}).update(entry.shared_params)
    reachable = graph.reachable(entry.qualname for entry in entries)
    findings: list[Finding] = []
    for qualname in sorted(reachable):
        info = graph.functions[qualname]
        module = project.modules[info.module]
        _SharedStateChecker(
            project,
            module,
            info,
            merges,
            shared_by_worker.get(qualname, {}),
            findings,
        ).run()
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return findings
