"""Rules protecting deterministic iteration order.

Python sets iterate in an order derived from element hashes and table
history; for strings that order changes with ``PYTHONHASHSEED``.  Any
schedule, trace, or event sequence built by walking a set can therefore
differ between runs.  Dicts and lists preserve insertion order and are
fine.  Object identities (``id()``) differ between runs as well.
"""

from __future__ import annotations

from repro.check.rules import FactRule, SIM_CRITICAL

__all__ = ["SetIteration", "BuiltinHash", "RULES"]


class SetIteration(FactRule):
    """No iteration order drawn from an unordered set."""

    rule_id = "set-iteration"
    title = "do not iterate sets where order matters"
    rationale = ("Set iteration order varies with PYTHONHASHSEED and "
                 "insertion history; wrap in sorted(...) before feeding "
                 "order-sensitive consumers like schedulers or traces.")
    scope = None  # ordering bugs travel; check the whole package
    advice = "use sorted(...) for a stable order"


class BuiltinHash(FactRule):
    """No salted ``hash()`` or address-derived ``id()`` feeding
    simulation state."""

    rule_id = "builtin-hash"
    title = "builtin hash() and id() differ between runs"
    rationale = ("hash() of str/bytes changes with PYTHONHASHSEED and "
                 "id() is a memory address, so anything keyed or "
                 "ordered by them differs between runs; use hashlib or "
                 "an explicit integer key.")
    scope = SIM_CRITICAL + ("repro.graph", "repro.designs",
                            "repro.allocation")
    advice = "use hashlib or an explicit integer key"


RULES = [SetIteration, BuiltinHash]
