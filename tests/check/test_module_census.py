"""Module census: every ``src/repro`` module is reached from an entry
point by static imports.

The entry points are the CLIs (``repro.experiments``,
``repro.core.cli``, ``repro.traces.cli``, ``python -m repro.obs`` and
``python -m repro.check``) and every script under ``bench/``,
``tools/``, ``examples/`` and ``benchmarks/``.  The census follows
their import facts (:attr:`ModuleSummary.imports
<repro.check.flow.summary.ModuleSummary.imports>`) transitively,
counting ``from pkg import mod`` as an import of ``pkg.mod`` and an
import of ``pkg.mod`` as one of ``pkg``.  A module reached only from
its own tests fails here: wire it into an entry point or delete it.

Names re-exported from a package are invisible to the census (the
package is reached, so everything in it counts as reached).
"""

from pathlib import Path
from typing import Iterator, List, Set

from repro.check.flow.summary import ModuleSummary, summarize_source

REPO = Path(__file__).resolve().parents[2]

ROOT_MODULES = (
    "repro.experiments.cli",
    "repro.experiments.__main__",
    "repro.core.cli",
    "repro.traces.cli",
    "repro.obs.__main__",
    "repro.check.__main__",
)

ROOT_DIRS = ("bench", "tools", "examples", "benchmarks")


def _script_summaries() -> Iterator[ModuleSummary]:
    """Every entry-point script outside ``src`` (not ``bench/tests``)."""
    for top in ROOT_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            rel = path.relative_to(REPO)
            if rel.parts[:2] == ("bench", "tests") \
                    or "__pycache__" in rel.parts:
                continue
            parts = list(rel.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            yield summarize_source(
                path.read_text(encoding="utf-8"), module=".".join(parts),
                path=str(rel), is_package=path.name == "__init__.py")


def _imported(summary: ModuleSummary) -> Iterator[str]:
    for binding in summary.imports:
        yield binding.module
        if binding.symbol is not None:
            yield f"{binding.module}.{binding.symbol}"


def reached(summaries: List[ModuleSummary]) -> Set[str]:
    """Modules of ``summaries`` reached from the entry points."""
    known = {s.module: s for s in summaries}
    stack = list(ROOT_MODULES)
    for script in _script_summaries():
        stack.extend(_imported(script))
    seen: Set[str] = set()
    while stack:
        module = stack.pop()
        if module in seen or module not in known:
            continue
        seen.add(module)
        parts = module.split(".")
        stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        stack.extend(_imported(known[module]))
    return seen


def test_every_module_is_reached_from_an_entry_point(tree_summaries):
    modules = {s.module for s in tree_summaries}
    assert all(m in modules for m in ROOT_MODULES)
    unreached = sorted(modules - reached(tree_summaries))
    assert unreached == [], (
        "modules no entry point imports (wire them in or delete "
        "them): " + ", ".join(unreached))


def test_plain_dotted_import_reaches_the_submodule():
    """``import a.b.c`` reaches ``a.b.c`` and ``a.b``, not only ``a``."""
    summaries = [
        summarize_source("import repro.pkg.leaf\n",
                         module="repro.core.cli", path="repro/core/cli.py"),
        summarize_source("", module="repro", path="repro/__init__.py",
                         is_package=True),
        summarize_source("", module="repro.pkg",
                         path="repro/pkg/__init__.py", is_package=True),
        summarize_source("", module="repro.pkg.leaf",
                         path="repro/pkg/leaf.py"),
    ]
    assert {"repro.pkg", "repro.pkg.leaf"} <= reached(summaries)
