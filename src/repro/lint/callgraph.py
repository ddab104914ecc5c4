"""Project-wide symbol table and call graph, built from module summaries.

Nodes are fully-qualified function names (``repro.stream.workers.
ShardClassifier._classify_batch``); edges are best-effort resolved
call sites.  Resolution handles the shapes this repository actually
uses:

* absolute imports canonicalised by the per-module
  :class:`~repro.lint.resolver.ImportResolver` (including relative
  imports — the project tells each resolver its module name);
* package re-exports: ``repro.lint.lint_paths`` follows the
  ``repro.lint/__init__`` alias chain to ``repro.lint.runner.lint_paths``;
* ``self.method()`` calls inside a class;
* bare local names, with a star-import fallback when the name is not
  defined in the calling module but is defined in exactly the starred
  modules.

The graph is *under-approximate* by design — dynamic dispatch,
higher-order callbacks and getattr tricks produce no edges — so rules
built on it treat a missing edge as "unknown", never as "safe to flag".
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

#: Follow at most this many re-export hops (cycles in __init__ chains).
_MAX_ALIAS_HOPS = 8


class FunctionNode:
    """One summarised function, addressable by its global qualname."""

    __slots__ = ("qualname", "module", "path", "record")

    def __init__(self, qualname: str, module: str, path: str, record: dict[str, Any]):
        self.qualname = qualname
        self.module = module
        self.path = path
        self.record = record

    @property
    def cls(self) -> Optional[str]:
        return self.record.get("cls")

    @property
    def is_async(self) -> bool:
        return bool(self.record.get("is_async"))


class CallGraph:
    """Symbol table + call edges over every module summary."""

    def __init__(self, summaries: dict[str, dict[str, Any]]):
        #: path -> summary (as produced by :func:`extract_summary`).
        self.summaries = summaries
        self.by_module: dict[str, dict[str, Any]] = {
            s["module"]: s for s in summaries.values()
        }
        self.functions: dict[str, FunctionNode] = {}
        for summary in summaries.values():
            for qual, record in summary["functions"].items():
                qualname = f"{summary['module']}.{qual}"
                self.functions[qualname] = FunctionNode(
                    qualname, summary["module"], summary["path"], record
                )
        # callee qualname -> [(caller FunctionNode, call record)]
        self._callers: dict[str, list[tuple[FunctionNode, dict[str, Any]]]] = {}
        # caller qualname -> [(callee qualname, call record)]
        self._callees: dict[str, list[tuple[str, dict[str, Any]]]] = {}
        self._build_edges()

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def _module_symbol(self, module: str, symbol: str) -> Optional[str]:
        """Resolve ``symbol`` (``name`` or ``Class.method``) in ``module``."""
        summary = self.by_module.get(module)
        if summary is None:
            return None
        if symbol in summary["functions"]:
            return f"{module}.{symbol}"
        head = symbol.split(".", 1)[0]
        if head in summary["classes"]:
            # A bare class resolves to its constructor when present.
            if "." not in symbol:
                init = f"{symbol}.__init__"
                if init in summary["functions"]:
                    return f"{module}.{init}"
                return f"{module}.{symbol}"  # class node (no ctor summarised)
            if symbol in summary["functions"]:  # pragma: no cover - head match
                return f"{module}.{symbol}"
        return None

    def resolve_dotted(self, dotted: str, hops: int = 0) -> Optional[str]:
        """Global qualname for a canonical dotted path, if project-local."""
        if hops > _MAX_ALIAS_HOPS:
            return None
        # Longest module prefix wins: repro.stream.workers.Pool.submit
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.by_module:
                continue
            symbol = ".".join(parts[cut:])
            direct = self._module_symbol(module, symbol)
            if direct is not None:
                return direct
            # Re-export: the module's own alias table may forward the
            # first symbol component (package __init__ chains).
            summary = self.by_module[module]
            head, _, rest = symbol.partition(".")
            alias = summary.get("aliases", {}).get(head)
            if alias is not None:
                forwarded = alias + (("." + rest) if rest else "")
                return self.resolve_dotted(forwarded, hops + 1)
            for star in summary.get("stars", ()):
                candidate = self.resolve_dotted(
                    f"{star}.{symbol}", hops + 1
                )
                if candidate is not None:
                    return candidate
            return None
        return None

    def resolve_call(
        self, caller: FunctionNode, call: dict[str, Any]
    ) -> Optional[str]:
        """Global qualname of a call record's target, if project-local."""
        target = call.get("target")
        if target is not None:
            return self.resolve_dotted(target)
        summary = self.by_module.get(caller.module)
        method = call.get("self_method")
        if method is not None and caller.cls is not None and summary is not None:
            qual = f"{caller.cls}.{method}"
            if qual in summary["functions"]:
                return f"{caller.module}.{qual}"
            return None
        local = call.get("local_name")
        if local is not None and summary is not None:
            resolved = self._module_symbol(caller.module, local)
            if resolved is not None:
                return resolved
            alias = summary.get("aliases", {}).get(local)
            if alias is not None:
                return self.resolve_dotted(alias)
            for star in summary.get("stars", ()):
                candidate = self.resolve_dotted(f"{star}.{local}")
                if candidate is not None:
                    return candidate
        return None

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        for node in self.functions.values():
            for call in node.record.get("calls", ()):
                callee = self.resolve_call(node, call)
                if callee is None:
                    continue
                self._callees.setdefault(node.qualname, []).append((callee, call))
                self._callers.setdefault(callee, []).append((node, call))

    def callers_of(
        self, qualname: str
    ) -> list[tuple[FunctionNode, dict[str, Any]]]:
        return self._callers.get(qualname, [])

    def callees_of(self, qualname: str) -> list[tuple[str, dict[str, Any]]]:
        return self._callees.get(qualname, [])

    def iter_functions(self) -> Iterator[FunctionNode]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    def may_block(self) -> frozenset[str]:
        """Functions that (transitively) make a blocking sync call.

        Seeded by direct blocking records, propagated backwards over the
        call edges to a fixpoint.  An ``await`` of an async callee does
        not launder the block away — the blocking section is still
        synchronous inside whoever runs it.
        """
        blocked: set[str] = {
            node.qualname
            for node in self.functions.values()
            if node.record.get("blocking")
        }
        changed = True
        while changed:
            changed = False
            for caller, edges in self._callees.items():
                if caller in blocked:
                    continue
                if any(callee in blocked for callee, _ in edges):
                    blocked.add(caller)
                    changed = True
        return frozenset(blocked)

    def methods_called_only_under(
        self, module: str, cls: str, locks: frozenset[str]
    ) -> frozenset[str]:
        """Methods of ``cls`` reached exclusively with one of ``locks`` held.

        The lockset generalisation: a private helper whose every project
        call site already holds the guarding lock inherits the lock —
        its unlocked-looking accesses are safe.  Computed to a fixpoint
        so helper-of-helper chains resolve; a method with *no* known
        call sites is never considered locked.
        """
        prefix = f"{module}.{cls}."
        methods = [q for q in self.functions if q.startswith(prefix)
                   and "<locals>" not in q]
        locked: set[str] = set()
        changed = True
        while changed:
            changed = False
            for qualname in methods:
                if qualname in locked:
                    continue
                callers = self._callers.get(qualname, [])
                if not callers:
                    continue
                def covered(caller: FunctionNode, call: dict[str, Any]) -> bool:
                    if any(lock in locks for lock in call.get("locks", ())):
                        return True
                    return caller.qualname in locked
                if all(covered(caller, call) for caller, call in callers):
                    locked.add(qualname)
                    changed = True
        return frozenset(locked)


__all__ = ["CallGraph", "FunctionNode"]
