"""The whole-program model: modules, symbols, and the call graph.

Built purely from :class:`~repro.check.flow.summary.ModuleSummary`
facts -- no import execution, no AST walks.  Name resolution is the
approximate-but-honest kind a determinism audit needs:

* import bindings are followed through re-export chains (``from
  repro.check.flow import analyze`` resolves through ``repro/check/
  flow/__init__.py`` to the defining module), with a cycle guard;
* ``self.method()`` / ``cls.method()`` resolve within the enclosing
  class, then through resolvable base classes;
* ``Class(...)`` resolves to ``Class.__init__`` when one is defined,
  else to the class node itself (whose params are its dataclass-style
  fields);
* ``functools.partial(fn, ...)`` contributes a call edge to ``fn``.

Unresolvable callees (builtins, third-party, attribute chains on
arbitrary objects) simply produce no edge: the passes over-approximate
*within* the project and stay silent about the outside, which keeps
false positives at review-tolerable levels.

Node ids are ``"<module>:<qualname>"`` strings, e.g.
``repro.retrieval.maxflow:maxflow_retrieval`` or
``repro.core.qos:QoSReport.__init__``; module-level code is the
pseudo-function ``<module>``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.flow.summary import (CallSite, ClassInfo,
                                      FunctionSummary, ModuleSummary)

__all__ = ["ProjectModel", "CallEdge"]


class CallEdge:
    """One resolved call-graph edge."""

    __slots__ = ("caller", "callee", "site")

    def __init__(self, caller: str, callee: str, site: CallSite):
        self.caller = caller
        self.callee = callee
        self.site = site

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallEdge({self.caller} -> {self.callee})"


class ProjectModel:
    """Modules, symbol tables and the resolved call graph."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        #: dotted module name -> summary, insertion-sorted by name
        self.modules: Dict[str, ModuleSummary] = {
            s.module: s for s in sorted(summaries,
                                        key=lambda s: s.module)}
        self._functions: Dict[str, FunctionSummary] = {}
        self._classes: Dict[str, ClassInfo] = {}
        self._module_of: Dict[str, str] = {}
        for summary in self.modules.values():
            for fn in summary.functions:
                node = f"{summary.module}:{fn.qualname}"
                self._functions[node] = fn
                self._module_of[node] = summary.module
            for cls in summary.classes:
                self._classes[f"{summary.module}:{cls.name}"] = cls
        self._edges: Optional[List[CallEdge]] = None
        self._adjacency: Optional[Dict[str, List[CallEdge]]] = None

    # -- lookups ---------------------------------------------------------
    def functions(self) -> Dict[str, FunctionSummary]:
        return self._functions

    def function(self, node: str) -> Optional[FunctionSummary]:
        return self._functions.get(node)

    def class_info(self, node: str) -> Optional[ClassInfo]:
        return self._classes.get(node)

    def module_of(self, node: str) -> str:
        return node.split(":", 1)[0]

    def path_of(self, node: str) -> str:
        summary = self.modules.get(self.module_of(node))
        return summary.path if summary else "<unknown>"

    # -- symbol resolution -----------------------------------------------
    def _binding_of(self, module: str, name: str):
        """What ``name`` means at top level of ``module``.

        Returns ``("function"|"class"|"module", target)`` or ``None``;
        follows import re-export chains with a cycle guard.
        """
        seen = set()
        while True:
            if (module, name) in seen:
                return None
            seen.add((module, name))
            summary = self.modules.get(module)
            if summary is None:
                return None
            fq = f"{module}:{name}"
            if fq in self._classes:
                return ("class", fq)
            if fq in self._functions:
                return ("function", fq)
            binding = None
            for imp in summary.imports:
                if imp.local == name:
                    binding = imp
            if binding is not None:
                if binding.symbol is None:
                    return ("module", binding.module)
                # ``from M import sym``: sym may itself be a module
                candidate = f"{binding.module}.{binding.symbol}"
                if candidate in self.modules:
                    return ("module", candidate)
                module, name = binding.module, binding.symbol
                continue
            alias = None
            for alias_name, target in summary.aliases:
                if alias_name == name:
                    alias = target
            if alias is not None and len(alias) == 1:
                name = alias[0]
                continue
            submodule = f"{module}.{name}"
            if submodule in self.modules:
                return ("module", submodule)
            return None

    def _method_in_class(self, class_fq: str, method: str,
                         _depth: int = 0) -> Optional[str]:
        """Resolve ``method`` in a class or its resolvable bases."""
        if _depth > 8:
            return None
        info = self._classes.get(class_fq)
        if info is None:
            return None
        module = class_fq.split(":", 1)[0]
        if method in info.methods:
            return f"{module}:{info.name}.{method}"
        for base in info.bases:
            resolved = self.resolve_dotted(module, base,
                                           class_context=None)
            if resolved and resolved[0] == "class":
                found = self._method_in_class(resolved[1], method,
                                              _depth + 1)
                if found:
                    return found
        return None

    def _instance_method(self, module: str,
                         ctor: Tuple[str, ...], method: str,
                         class_context: Optional[str]):
        """``obj.method`` where ``obj`` was built by ``ctor(...)``."""
        resolved = self.resolve_dotted(module, ctor, class_context)
        if resolved and resolved[0] == "class":
            found = self._method_in_class(resolved[1], method)
            if found:
                return ("function", found)
        return None

    def resolve_dotted(self, module: str, dotted: Tuple[str, ...],
                       class_context: Optional[str] = None,
                       fn: Optional[FunctionSummary] = None):
        """Resolve a dotted name used inside ``module``.

        ``class_context`` is the enclosing class name for ``self.x`` /
        ``cls.x`` resolution; ``fn`` supplies local instance types for
        ``obj.method()`` on constructor-assigned locals.  Returns
        ``("function"|"class"|"module", fq)`` or ``None``.
        """
        if not dotted:
            return None
        head = dotted[0]
        if head in ("self", "cls") and class_context is not None:
            if len(dotted) == 2:
                found = self._method_in_class(
                    f"{module}:{class_context}", dotted[1])
                if found:
                    return ("function", found)
            elif len(dotted) == 3:
                # self.attr.method() via the recorded attribute type
                info = self._classes.get(f"{module}:{class_context}")
                if info is not None:
                    ctor = info.attr_type_map().get(dotted[1])
                    if ctor is not None:
                        return self._instance_method(
                            module, ctor, dotted[2], class_context)
            return None
        if fn is not None and len(dotted) == 2:
            ctor = fn.local_type_map().get(head)
            if ctor is not None:
                resolved = self._instance_method(
                    module, ctor, dotted[1], class_context)
                if resolved is not None:
                    return resolved
        binding = self._binding_of(module, head)
        if binding is None:
            return None
        kind, target = binding
        for part in dotted[1:]:
            if kind == "module":
                binding = self._binding_of(target, part)
                if binding is None:
                    return None
                kind, target = binding
            elif kind == "class":
                found = self._method_in_class(target, part)
                if found is None:
                    return None
                kind, target = "function", found
            else:
                return None  # attribute of a function result
        return (kind, target)

    def resolve_callee(self, module: str, site: CallSite,
                       class_context: Optional[str] = None,
                       fn: Optional[FunctionSummary] = None,
                       ) -> Optional[str]:
        """The call-graph node a call site lands on, or ``None``.

        Class constructions resolve to ``Class.__init__`` when defined
        (searching bases), else to the class node itself.
        """
        resolved = self.resolve_dotted(module, site.callee,
                                       class_context, fn)
        if resolved is None:
            return None
        kind, target = resolved
        if kind == "function":
            return target
        if kind == "class":
            init = self._method_in_class(target, "__init__")
            return init if init is not None else target
        return None

    # -- call graph ------------------------------------------------------
    def call_edges(self) -> List[CallEdge]:
        """Every resolved edge, in deterministic (module, def) order."""
        if self._edges is not None:
            return self._edges
        edges: List[CallEdge] = []
        for module, summary in self.modules.items():
            for fn in summary.functions:
                caller = f"{module}:{fn.qualname}"
                cls_ctx = fn.qualname.split(".")[0] \
                    if "." in fn.qualname else None
                for site in fn.calls:
                    callee = self.resolve_callee(module, site, cls_ctx,
                                                 fn)
                    if callee is not None:
                        edges.append(CallEdge(caller, callee, site))
                    # Higher-order flow: a project function passed by
                    # reference (Cell payloads, functools.partial,
                    # factory parameters) may be called by the
                    # receiver; over-approximate with an edge from the
                    # passer.  Class references stay reference-only.
                    for ref in self._arg_refs(site):
                        resolved = self.resolve_dotted(module, ref,
                                                       cls_ctx, fn)
                        if resolved and resolved[0] == "function" \
                                and resolved[1] != caller:
                            edges.append(CallEdge(
                                caller, resolved[1], site))
        self._edges = edges
        return edges

    @staticmethod
    def _arg_refs(site: CallSite):
        """Dotted names passed as argument values at a call site."""
        for dotted in site.pos_dotted:
            if dotted is not None:
                yield dotted
        for _, dotted in site.keywords:
            if dotted is not None:
                yield dotted

    def adjacency(self) -> Dict[str, List[CallEdge]]:
        """Caller node -> outgoing edges (deterministic order)."""
        if self._adjacency is not None:
            return self._adjacency
        adj: Dict[str, List[CallEdge]] = {}
        for edge in self.call_edges():
            adj.setdefault(edge.caller, []).append(edge)
        self._adjacency = adj
        return adj

    # -- node matching ---------------------------------------------------
    def expand_roots(self, patterns: Sequence[str]) -> List[str]:
        """Expand root patterns to concrete call-graph nodes.

        Supported forms: ``mod:func``, ``mod:Class`` (the class node
        plus every method), ``mod:*`` (every function in the module),
        and ``mod:Class.method``.  Unknown patterns expand to nothing.
        """
        out: List[str] = []
        for pattern in patterns:
            if ":" not in pattern:
                continue
            module, symbol = pattern.split(":", 1)
            if symbol == "*":
                summary = self.modules.get(module)
                if summary is not None:
                    out.extend(f"{module}:{fn.qualname}"
                               for fn in summary.functions)
                continue
            fq = f"{module}:{symbol}"
            if fq in self._classes:
                info = self._classes[fq]
                out.append(fq)
                out.extend(f"{module}:{info.name}.{m}"
                           for m in info.methods)
                continue
            if fq in self._functions:
                out.append(fq)
        return list(dict.fromkeys(out))

    def callable_params(self, node: str) -> Optional[Tuple[str, ...]]:
        """Parameter names of a node, self/cls stripped for methods.

        For a bare class node (dataclass without ``__init__``) the
        annotated fields stand in for the constructor signature.
        """
        fn = self._functions.get(node)
        if fn is not None:
            params = fn.params
            if fn.is_method and params \
                    and params[0] in ("self", "cls"):
                params = params[1:]
            return params
        info = self._classes.get(node)
        if info is not None:
            return info.fields
        return None

    def node_has_kwargs(self, node: str) -> bool:
        fn = self._functions.get(node)
        return fn.has_kwargs if fn is not None else False
