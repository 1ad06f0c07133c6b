"""Per-file fact extraction: one parse, one AST walk, one summary.

This is the only code in :mod:`repro.check` that decides whether a
call or loop is a determinism hazard.  Each source file is parsed once
and reduced to a :class:`ModuleSummary`: import bindings, the symbol
table of top-level functions/classes, the line pragmas, and for every
function a :class:`FunctionSummary` holding its call sites,
nondeterminism source facts, RNG constructions (with a local
seed-provenance classification) and pickle hazards.

Both consumers read the same facts.  The lint rules
(:mod:`repro.check.rules`) filter a module's source facts
(:class:`SourceFact`) by kind and package scope; the interprocedural passes
(:mod:`repro.check.flow`) follow them through the call graph.  The
summary keeps the parsed tree, so the lint rules that inspect syntax
directly run on it without a second parse.

Nesting is flattened: facts inside nested functions, lambdas and
comprehensions are folded into the enclosing top-level function (or
method), which over-approximates reachability exactly the way a taint
analysis wants.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["CallSite", "SourceFact", "RngConstruction",
           "FunctionSummary", "ImportBinding", "ClassInfo",
           "ModuleSummary", "summarize_source", "summarize_paths",
           "MODULE_BODY"]

#: pseudo-function name for module-level code
MODULE_BODY = "<module>"

#: ``# repro: allow[rule-a,rule-b]`` or ``# repro: allow[*]``
_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([\w\-*,\s]+)\]")

#: ``time`` functions that read the host clock -> True when the clock
#: is also wrong for measuring durations (adjustable wall time, coarse
#: monotonic); ``perf_counter``/``process_time`` are the duration clocks
_TIME_FNS = {"time": True, "time_ns": True,
             "monotonic": True, "monotonic_ns": True,
             "perf_counter": False, "perf_counter_ns": False,
             "process_time": False, "process_time_ns": False}

#: ``datetime``/``date`` constructors that read the adjustable wall clock
_DATETIME_FNS = {"now", "utcnow", "today"}
_DATETIME_OWNERS = {"datetime", "date"}

_NUMPY_ALIASES = {"np", "numpy"}

#: numpy.random members that do not touch the hidden global state
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64",
                 "Philox", "BitGenerator", "RandomState"}

#: stdlib random module functions backed by the global Twister
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
    "randbytes",
}

#: RNG constructors the seed-flow pass audits: dotted suffix -> kind
_RNG_CONSTRUCTORS = {
    ("default_rng",): "default_rng",
    ("Random",): "Random",
    ("RandomState",): "RandomState",
    ("SeedSequence",): "SeedSequence",
}

#: builtins whose result carries the order of their first argument
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "next",
                          "zip"}

_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference"}


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for anything richer."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_unordered_set(node: ast.AST) -> bool:
    """Syntactic witness that ``node`` evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) \
                and node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SET_METHODS \
                and _is_unordered_set(node.func.value):
            return True
    if isinstance(node, ast.BinOp) \
            and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
        return _is_unordered_set(node.left) or _is_unordered_set(node.right)
    return False


def _clock_read(dotted: Tuple[str, ...]) -> Optional[bool]:
    """None unless the call reads a host clock; else whether that
    clock is also the wrong one for measuring a duration."""
    n = len(dotted)
    if n < 2:
        return None
    head, owner, name = dotted[0], dotted[-2], dotted[-1]
    if owner == "time" and n <= 3 and name in _TIME_FNS:
        return _TIME_FNS[name] and n == 2
    if name in _DATETIME_FNS and (head in _DATETIME_OWNERS
                                  or (owner in _DATETIME_OWNERS
                                      and n <= 3)):
        return owner in _DATETIME_OWNERS
    return None


def _collect_pragmas(source: str) -> Dict[int, Tuple[str, ...]]:
    """Map line numbers to the rule/pass ids their pragmas waive.

    Pragmas are read from real COMMENT tokens so that pragma-shaped
    text inside string literals does not waive anything.
    """
    allowed: Dict[int, Set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if not match:
                continue
            ids = {part.strip() for part in match.group(1).split(",")
                   if part.strip()}
            allowed.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:  # pragma: no cover - unparsable file
        pass
    return {line: tuple(sorted(ids)) for line, ids in allowed.items()}


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    callee: Tuple[str, ...]
    line: int
    n_pos: int
    #: dotted name of each positional arg when it is a plain name/attr
    pos_dotted: Tuple[Optional[Tuple[str, ...]], ...]
    #: keyword name -> dotted value (or None), in source order
    keywords: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...]
    has_star_kwargs: bool
    #: pickle hazards per positional arg subtree ("lambda", "genexp",
    #: "open-call", "local-def:<name>")
    pos_hazards: Tuple[Tuple[str, ...], ...]
    kw_hazards: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def keyword_names(self) -> Tuple[str, ...]:
        return tuple(k for k, _ in self.keywords)


@dataclass(frozen=True)
class SourceFact:
    """A syntactic witness of nondeterminism inside a function."""

    #: wall-clock | duration-clock | unseeded-rng | global-rng-seed |
    #: set-iteration | builtin-hash -- the ids of the lint rules that
    #: report them; a ``duration-clock`` fact always shares its call
    #: with a ``wall-clock`` fact
    kind: str
    line: int
    detail: str


@dataclass(frozen=True)
class RngConstruction:
    """One RNG/SeedSequence construction with its seed provenance.

    ``seed_from`` classifies where the seed expression's entropy comes
    from, by a local forward def-use scan:

    * ``"param"`` -- derives from a parameter (or ``self``/``cls``
      attribute) of the enclosing function: threadable, fine;
    * ``"constant"`` -- a literal constant at the construction site;
    * ``"module-const"`` -- a module-level name, not threaded through
      the function's parameters;
    * ``"missing"`` -- no seed argument at all (entropy-seeded);
    * ``"other"`` -- references only locals of unknown provenance.
    """

    kind: str
    line: int
    seed_from: str
    detail: str


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the passes need to know about one function."""

    qualname: str  # "func", "Class.method", or MODULE_BODY
    line: int
    #: positional + keyword-only parameter names, in order, with the
    #: leading self/cls of methods *included* (resolution strips it)
    params: Tuple[str, ...]
    has_kwargs: bool
    is_method: bool
    calls: Tuple[CallSite, ...]
    sources: Tuple[SourceFact, ...]
    rngs: Tuple[RngConstruction, ...]
    #: names of functions/classes defined *inside* this function
    local_defs: Tuple[str, ...]
    #: local name -> dotted constructor it was assigned from
    #: (``sampler = OptimalRetrievalSampler(...)``)
    local_types: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def local_type_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.local_types)


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by an import statement (``import a.b.c`` also
    records the dotted path ``a.b.c`` it imports)."""

    local: str
    module: str
    symbol: Optional[str]  # None for a plain module import
    line: int


@dataclass(frozen=True)
class ClassInfo:
    """Top-level class: bases (as written) and dataclass-style fields."""

    name: str
    line: int
    bases: Tuple[Tuple[str, ...], ...]
    #: annotated class-body assignments, in order -- the implicit
    #: ``__init__`` signature of dataclasses
    fields: Tuple[str, ...]
    methods: Tuple[str, ...]
    #: instance attribute -> dotted constructor (``self.m = Matcher(...)``)
    attr_types: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def attr_type_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.attr_types)


@dataclass
class ModuleSummary:
    """The complete per-file fact base."""

    module: str
    path: str
    imports: Tuple[ImportBinding, ...]
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassInfo, ...]
    #: module-level ``NAME = <plain name/attr>`` aliases
    aliases: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: module-level names bound to constants
    constants: Tuple[str, ...]
    #: pragma line -> waived ids
    pragmas: Dict[int, Tuple[str, ...]]
    #: the parsed module, for the lint rules that read syntax directly
    tree: ast.Module = field(repr=False, compare=False)

    def facts(self) -> Iterator[SourceFact]:
        """Every source fact in the module, function by function."""
        for fn in self.functions:
            yield from fn.sources

    def is_allowed(self, ids: Tuple[str, ...], line: int) -> bool:
        """True if any of ``ids`` (or ``*``) is waived on ``line``
        or on the line directly above it."""
        for candidate in (line, line - 1):
            waived = self.pragmas.get(candidate)
            if waived and ("*" in waived
                           or any(i in waived for i in ids)):
                return True
        return False


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _resolve_relative(module: str, level: int,
                      target: Optional[str], is_package: bool) -> str:
    """Absolute module for a ``from ...x import y`` statement."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[:len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _arg_hazards(node: ast.AST, local_defs: frozenset,
                 lambda_locals: frozenset) -> Tuple[str, ...]:
    """Pickle hazards anywhere inside one argument expression."""
    hazards: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Lambda):
            hazards.append("lambda")
        elif isinstance(sub, ast.GeneratorExp):
            hazards.append("genexp")
        elif isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Name) \
                and sub.func.id == "open":
            hazards.append("open-call")
        elif isinstance(sub, ast.Name):
            if sub.id in local_defs:
                hazards.append(f"local-def:{sub.id}")
            elif sub.id in lambda_locals:
                hazards.append("lambda")
    return tuple(dict.fromkeys(hazards))


class _FunctionCollector:
    """Accumulates the facts for one top-level function (flattened)."""

    def __init__(self, qualname: str, line: int,
                 params: Tuple[str, ...], has_kwargs: bool,
                 is_method: bool):
        self.qualname = qualname
        self.line = line
        self.params = params
        self.has_kwargs = has_kwargs
        self.is_method = is_method
        self.calls: List[CallSite] = []
        self.sources: List[SourceFact] = []
        self.rngs: List[RngConstruction] = []
        self.local_defs: List[str] = []
        #: names proven to derive from a parameter
        self.derived = set(params) | {"self", "cls"}
        #: local names bound to lambdas (pickle hazard by reference)
        self.lambda_locals: set = set()
        #: local name -> dotted constructor (first assignment wins)
        self.local_types: Dict[str, Tuple[str, ...]] = {}

    def finish(self) -> FunctionSummary:
        return FunctionSummary(
            qualname=self.qualname, line=self.line, params=self.params,
            has_kwargs=self.has_kwargs, is_method=self.is_method,
            calls=tuple(self.calls), sources=tuple(self.sources),
            rngs=tuple(self.rngs),
            local_defs=tuple(dict.fromkeys(self.local_defs)),
            local_types=tuple(sorted(self.local_types.items())))


def _params_of(node) -> Tuple[Tuple[str, ...], bool]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args
             + args.kwonlyargs]
    return tuple(names), args.kwarg is not None


def _names_in(node: ast.AST) -> List[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            base = sub.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                out.append(base.id)
    return out


def _assign_targets(node: ast.AST) -> List[str]:
    out = []
    stack = [node]
    while stack:
        t = stack.pop()
        if isinstance(t, ast.Name):
            out.append(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
    return out


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST producing all function summaries."""

    def __init__(self, module: str):
        self.module = module
        self.functions: List[FunctionSummary] = []
        self.classes: List[ClassInfo] = []
        self.imports: List[ImportBinding] = []
        self.aliases: List[Tuple[str, Tuple[str, ...]]] = []
        self.constants: List[str] = []
        self._class: Optional[str] = None
        self._collector: Optional[_FunctionCollector] = None
        self._module_collector = _FunctionCollector(
            MODULE_BODY, 1, (), False, False)
        self._class_fields: List[str] = []
        self._class_methods: List[str] = []
        self._class_attr_types: Dict[str, Tuple[str, ...]] = {}

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                local, target = alias.asname, alias.name
            else:
                local = target = alias.name.split(".")[0]
                if target != alias.name:
                    # ``import a.b.c`` imports ``a.b.c`` but binds
                    # only ``a``: the submodule is recorded under its
                    # dotted path, which no bare name matches, and the
                    # binding of ``a`` follows it, so names resolve
                    # as before.
                    self.imports.append(ImportBinding(
                        local=alias.name, module=alias.name,
                        symbol=None, line=node.lineno))
            self.imports.append(ImportBinding(
                local=local, module=target, symbol=None,
                line=node.lineno))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_relative(self.module, node.level, node.module,
                                 self._is_package)
        for alias in node.names:
            if alias.name == "*":
                continue
            self.imports.append(ImportBinding(
                local=alias.asname or alias.name, module=base,
                symbol=alias.name, line=node.lineno))
        self.generic_visit(node)

    _is_package = False  # set by summarize_source

    # -- definitions ----------------------------------------------------
    def _visit_def(self, node) -> None:
        if self._collector is not None:
            # nested def: record the name, fold the body into the
            # enclosing top-level function
            self._collector.local_defs.append(node.name)
            self.generic_visit(node)
            return
        params, has_kwargs = _params_of(node)
        qual = f"{self._class}.{node.name}" if self._class else node.name
        collector = _FunctionCollector(qual, node.lineno, params,
                                       has_kwargs,
                                       is_method=self._class is not None)
        self._collector = collector
        if self._class is not None:
            self._class_methods.append(node.name)
        self.generic_visit(node)
        self._collector = None
        self.functions.append(collector.finish())

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._collector is not None:
            self._collector.local_defs.append(node.name)
            self.generic_visit(node)
            return
        if self._class is not None:
            # nested class inside a class body: skip the fine detail
            self.generic_visit(node)
            return
        self._class = node.name
        self._class_fields = []
        self._class_methods = []
        self._class_attr_types = {}
        self.generic_visit(node)
        bases = tuple(d for d in (_dotted(b) for b in node.bases)
                      if d is not None)
        self.classes.append(ClassInfo(
            name=node.name, line=node.lineno, bases=bases,
            fields=tuple(self._class_fields),
            methods=tuple(self._class_methods),
            attr_types=tuple(sorted(self._class_attr_types.items()))))
        self._class = None

    # -- assignments ----------------------------------------------------
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._class is not None and self._collector is None \
                and isinstance(node.target, ast.Name):
            self._class_fields.append(node.target.id)
        self._note_assignment(node, [node.target] if node.value else [])
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_assignment(node, node.targets)
        self.generic_visit(node)

    def _note_assignment(self, node, targets) -> None:
        value = getattr(node, "value", None)
        if value is None:
            return
        collector = self._collector
        if collector is not None:
            names = [n for t in targets for n in _assign_targets(t)]
            if any(n in collector.derived for n in _names_in(value)):
                collector.derived.update(names)
            if isinstance(value, ast.Lambda):
                collector.lambda_locals.update(names)
            if isinstance(value, ast.Call):
                ctor = _dotted(value.func)
                if ctor is not None:
                    for n in names:
                        collector.local_types.setdefault(n, ctor)
                    for t in targets:
                        if isinstance(t, ast.Attribute) \
                                and isinstance(t.value, ast.Name) \
                                and t.value.id == "self":
                            self._class_attr_types.setdefault(
                                t.attr, ctor)
            return
        if self._class is None:
            # module level: record aliases and constants
            for t in targets:
                if not isinstance(t, ast.Name):
                    continue
                dotted = _dotted(value)
                if dotted is not None:
                    self.aliases.append((t.id, dotted))
                elif isinstance(value, ast.Constant):
                    self.constants.append(t.id)

    def visit_For(self, node: ast.For) -> None:
        collector = self._collector
        if collector is not None \
                and any(n in collector.derived
                        for n in _names_in(node.iter)):
            collector.derived.update(_assign_targets(node.target))
        if _is_unordered_set(node.iter):
            self._fact("set-iteration", node.lineno,
                       "for-loop over an unordered set")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            if _is_unordered_set(gen.iter):
                self._fact("set-iteration", node.lineno,
                           "comprehension over an unordered set")
        self.generic_visit(node)

    # building another *set* from a set is order-free: no visit_SetComp
    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- facts ----------------------------------------------------------
    def _sink_collector(self) -> _FunctionCollector:
        return self._collector if self._collector is not None \
            else self._module_collector

    def _fact(self, kind: str, line: int, detail: str) -> None:
        self._sink_collector().sources.append(
            SourceFact(kind=kind, line=line, detail=detail))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            collector = self._sink_collector()
            self._record_call(collector, node, dotted)
            self._record_sources(node, dotted)
            self._record_rng(collector, node, dotted)
        self.generic_visit(node)

    def _record_call(self, collector: _FunctionCollector,
                     node: ast.Call, dotted: Tuple[str, ...]) -> None:
        local_defs = frozenset(collector.local_defs)
        lambda_locals = frozenset(collector.lambda_locals)
        pos_dotted = tuple(_dotted(a) for a in node.args)
        keywords = tuple((kw.arg, _dotted(kw.value))
                         for kw in node.keywords
                         if kw.arg is not None)
        has_star = any(kw.arg is None for kw in node.keywords)
        pos_hazards = tuple(_arg_hazards(a, local_defs, lambda_locals)
                            for a in node.args)
        kw_hazards = tuple(
            (kw.arg, _arg_hazards(kw.value, local_defs, lambda_locals))
            for kw in node.keywords if kw.arg is not None)
        collector.calls.append(CallSite(
            callee=dotted, line=node.lineno, n_pos=len(node.args),
            pos_dotted=pos_dotted, keywords=keywords,
            has_star_kwargs=has_star, pos_hazards=pos_hazards,
            kw_hazards=kw_hazards))

    def _record_sources(self, node: ast.Call,
                        dotted: Tuple[str, ...]) -> None:
        line = node.lineno
        name = ".".join(dotted)
        clock = _clock_read(dotted)
        if clock is not None:
            self._fact("wall-clock", line, f"{name}() reads the host clock")
            if clock:
                self._fact("duration-clock", line,
                           f"{name}() is the wrong clock for durations")
        elif dotted == ("random", "seed") \
                or (len(dotted) == 3 and dotted[0] in _NUMPY_ALIASES
                    and dotted[1:] == ("random", "seed")):
            self._fact("global-rng-seed", line,
                       f"{name}(...) mutates process-global RNG state")
        elif len(dotted) == 3 and dotted[0] in _NUMPY_ALIASES \
                and dotted[1] == "random":
            if dotted[2] == "default_rng" and not node.args \
                    and not node.keywords:
                self._fact("unseeded-rng", line,
                           "default_rng() without a seed")
            elif dotted[2] not in _NP_RANDOM_OK:
                self._fact("unseeded-rng", line,
                           f"{name} uses the hidden global RandomState")
        elif len(dotted) == 2 and dotted[0] == "random" \
                and dotted[1] in _STDLIB_RANDOM_FNS:
            self._fact("unseeded-rng", line,
                       f"{name} draws from the process-global Twister")
        elif dotted in (("id",), ("hash",)):
            self._fact("builtin-hash", line,
                       f"{name}() is process-salted / address-derived")
        elif len(dotted) == 1 and dotted[0] in _ORDER_SENSITIVE_CALLS \
                and node.args and _is_unordered_set(node.args[0]):
            self._fact("set-iteration", line,
                       f"{name}() materialises set order")

    def _record_rng(self, collector: _FunctionCollector,
                    node: ast.Call, dotted: Tuple[str, ...]) -> None:
        kind = None
        if len(dotted) == 3 and dotted[0] in _NUMPY_ALIASES \
                and dotted[1] == "random" \
                and (dotted[2],) in _RNG_CONSTRUCTORS:
            kind = _RNG_CONSTRUCTORS[(dotted[2],)]
        elif len(dotted) == 2 and dotted[0] == "random" \
                and dotted[1] == "Random":
            kind = "Random"
        elif len(dotted) == 1 and dotted in _RNG_CONSTRUCTORS:
            kind = _RNG_CONSTRUCTORS[dotted]
        if kind is None:
            return
        seed_args = [a for a in node.args
                     if not isinstance(a, ast.Starred)]
        for kw in node.keywords:
            if kw.arg in ("seed", "entropy", "x"):
                seed_args.append(kw.value)
        if not seed_args:
            seed_from, detail = "missing", "no seed argument"
        else:
            expr = seed_args[0]
            names = _names_in(expr)
            if isinstance(expr, ast.Constant):
                seed_from = "constant"
                detail = f"literal seed {expr.value!r}"
            elif any(n in collector.derived for n in names):
                seed_from, detail = "param", ""
            elif names and all(n in self._module_constants()
                               for n in names):
                seed_from = "module-const"
                detail = (f"seed comes from module constant(s) "
                          f"{', '.join(sorted(set(names)))}")
            elif not names:
                # expression of constants only, e.g. 1 + 2
                seed_from, detail = "constant", "constant expression"
            else:
                seed_from, detail = "other", ""
        collector.rngs.append(RngConstruction(
            kind=kind, line=node.lineno, seed_from=seed_from,
            detail=detail))

    def _module_constants(self) -> frozenset:
        return frozenset(self.constants)


def summarize_source(source: str, *, module: str, path: str,
                     is_package: bool = False) -> ModuleSummary:
    """Parse one source string and extract its :class:`ModuleSummary`."""
    tree = ast.parse(source, filename=path)
    extractor = _Extractor(module)
    extractor._is_package = is_package
    extractor.visit(tree)
    functions = list(extractor.functions)
    functions.append(extractor._module_collector.finish())
    return ModuleSummary(
        module=module, path=path,
        imports=tuple(extractor.imports),
        functions=tuple(functions),
        classes=tuple(extractor.classes),
        aliases=tuple(extractor.aliases),
        constants=tuple(extractor.constants),
        pragmas=_collect_pragmas(source),
        tree=tree)


def summarize_paths(src_root: Path) -> Iterator[ModuleSummary]:
    """Summaries of every ``.py`` file under ``src_root``, in path order.

    ``src_root`` is the directory *containing* the top-level package
    (e.g. ``src``), so ``src/repro/sim/core.py`` is module
    ``repro.sim.core``; paths are reported relative to the parent of
    ``src_root`` (``src/repro/sim/core.py``).
    """
    root = Path(src_root).resolve()
    paths = sorted(p for p in root.rglob("*.py")
                   if "__pycache__" not in p.parts)
    for path in paths:
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield summarize_source(
            path.read_text(encoding="utf-8"), module=".".join(parts),
            path=str(path.relative_to(root.parent)),
            is_package=path.name == "__init__.py")
