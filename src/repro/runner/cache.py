"""Content-addressed on-disk cache for experiment cell results.

A *cell* (see :mod:`repro.runner.parallel`) is a pure function of its
parameters and seed, so its result can be cached across processes and
sessions.  Keys are sha256 digests over the canonical JSON of the
cell's identity -- experiment name, cell name, fully-qualified
function, parameters, a fingerprint of the whole ``repro`` source
tree, and the process-level runtime switch (sanitizers) -- so any
code change invalidates every entry at once (cheap and safe:
correctness never depends on a partial-invalidation heuristic)
and results computed under one runtime mode never satisfy another.

Entries live under ``.benchmarks/cache/<2-char prefix>/<digest>.pkl``
(pickle payloads, written atomically via rename).  The directory is
disposable; delete it to force recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

__all__ = ["ResultCache", "source_fingerprint", "runtime_token"]

#: process-wide memo: fingerprinting walks every source file, and the
#: tree cannot change mid-run in a meaningful way
_FINGERPRINTS: Dict[str, str] = {}


def source_fingerprint(package_root: Optional[Path] = None,
                       refresh: bool = False) -> str:
    """Digest of every ``*.py`` under the ``repro`` package.

    The digest covers relative paths and file contents, so moving,
    editing, adding or deleting any source file changes it.
    """
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    root = Path(package_root)
    memo_key = str(root)
    if not refresh and memo_key in _FINGERPRINTS:
        return _FINGERPRINTS[memo_key]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    out = digest.hexdigest()
    _FINGERPRINTS[memo_key] = out
    return out


def runtime_token() -> Dict[str, bool]:
    """Process-level switches that change what a cell computes.

    Sanitizers rewire the simulation with checking wrappers; they
    claim byte-identical *results*, but a cache must not take that on
    faith -- a bug in either mode would otherwise leak results across
    modes and mask itself.  Read lazily so runtime toggles
    (``sanitizers.enable()``) take effect.  Which admission and
    retrieval paths a play takes is decided per session from its
    configuration alone, so it needs no field here.
    """
    from repro.check import sanitizers

    return {"sanitizers": bool(sanitizers.ACTIVE)}


def _canonical(payload: Any) -> str:
    """Stable JSON rendering for hashing (sorted keys, repr fallback)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)


class ResultCache:
    """Pickle-backed content-addressed result store.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``.benchmarks/cache`` under the
        current working directory.
    fingerprint:
        Source-tree fingerprint mixed into every key; computed from
        the installed ``repro`` package when omitted.
    """

    def __init__(self, root: Optional[Path] = None,
                 fingerprint: Optional[str] = None):
        self.root = Path(root) if root is not None \
            else Path(".benchmarks") / "cache"
        self.fingerprint = fingerprint or source_fingerprint()
        self.hits = 0
        self.misses = 0

    def key(self, experiment: str, name: str, fn_ref: str,
            params: Dict[str, Any]) -> str:
        """Content address of one cell result."""
        return hashlib.sha256(_canonical({
            "experiment": experiment,
            "cell": name,
            "fn": fn_ref,
            "params": params,
            "source": self.fingerprint,
            "runtime": runtime_token(),
        }).encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; unreadable or corrupt entries are misses."""
        path = self._path(key)
        try:
            payload = path.read_bytes()
            value = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` atomically (write-to-temp + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(pickle.dumps(value, protocol=4))
        tmp.replace(path)

    # -- maintenance -----------------------------------------------------
    def entries(self) -> list:
        """All ``(path, size_bytes, mtime)`` entries, oldest first.

        Stale ``.tmp`` leftovers from interrupted writes count too --
        pruning should sweep them up.
        """
        rows = []
        if not self.root.is_dir():
            return rows
        for path in self.root.rglob("*.pkl*"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append((path, stat.st_size, stat.st_mtime))
        rows.sort(key=lambda r: (r[2], str(r[0])))
        return rows

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(size for _, size, _ in self.entries())

    def prune(self, max_bytes: int = 0) -> Dict[str, int]:
        """Evict oldest entries until at most ``max_bytes`` remain.

        ``max_bytes=0`` clears the cache entirely.  Eviction is by
        modification time (oldest first; path as the tie-break), so
        recently validated results survive.  Missing files are
        ignored -- concurrent runs may prune the same tree.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        rows = self.entries()
        total = sum(size for _, size, _ in rows)
        removed = 0
        removed_bytes = 0
        for path, size, _ in rows:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            removed_bytes += size
        return {"removed": removed, "removed_bytes": removed_bytes,
                "kept_bytes": total}
