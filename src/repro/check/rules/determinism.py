"""Rules protecting seeded, replayable randomness.

A reproduction whose benchmark numbers move between runs cannot support
the paper's claims.  Randomness is welcome -- but only through an
explicitly seeded generator that the caller controls, and never from
the wall clock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.flow.summary import ModuleSummary
from repro.check.lint import Violation
from repro.check.rules import FactRule, Rule, SIM_CRITICAL

__all__ = ["UnseededRng", "WallClock", "DurationClock", "GlobalRngSeed",
           "SeedDefaultNone", "RULES"]


class UnseededRng(FactRule):
    """No unseeded or global-state RNG in simulation-critical code."""

    rule_id = "unseeded-rng"
    title = "RNG must be an explicitly seeded Generator"
    rationale = ("Unseeded generators and the hidden global state of "
                 "numpy.random/* and random.* make trace generation and "
                 "scheduling irreproducible between runs.")
    scope = SIM_CRITICAL
    advice = ("construct a seeded default_rng(seed) or "
              "random.Random(seed) instead")


class WallClock(FactRule):
    """No wall-clock reads in simulation-critical code."""

    rule_id = "wall-clock"
    title = "simulated time must come from Environment.now"
    rationale = ("time.time()/datetime.now() leak host timing into the "
                 "model; simulation code must read the virtual clock so "
                 "runs replay bit-identically.")
    scope = SIM_CRITICAL
    advice = "derive timing from the simulation Environment"


class DurationClock(FactRule):
    """Durations are measured with ``perf_counter``, nothing else."""

    rule_id = "duration-clock"
    title = "measure durations with time.perf_counter()"
    rationale = ("time.time()/datetime.now() follow the adjustable "
                 "wall clock: NTP slews and DST steps make intervals "
                 "computed from them wrong exactly when timing "
                 "matters; time.monotonic() trades away the "
                 "resolution cost measurements need.  Benchmarks and "
                 "cost measurements must use the monotonic "
                 "high-resolution time.perf_counter(); a genuine "
                 "wall-time *stamp* (log line, report header) carries "
                 "a pragma saying so.")
    # Everywhere, sim-critical scopes included: WallClock reports the
    # same call there under its own id, but a deliberate
    # ``allow[wall-clock]`` stamp must not silently license the wrong
    # clock for a *duration* as well.
    scope = None
    advice = ("use time.perf_counter(), or pragma a deliberate "
              "wall-time stamp")


class GlobalRngSeed(FactRule):
    """Never reseed process-global RNG state."""

    rule_id = "global-rng-seed"
    title = "no np.random.seed / random.seed"
    rationale = ("Reseeding the global state couples unrelated modules "
                 "through hidden shared state; every component owns its "
                 "own Generator instead.")
    scope = None  # everywhere: global state is global
    advice = "construct a local seeded Generator"


class SeedDefaultNone(Rule):
    """Public seeds default to a number, not to entropy."""

    rule_id = "seed-default-none"
    title = "seed/rng parameters must not default to None"
    rationale = ("`seed=None` silently falls back to OS entropy, so the "
                 "default call is the one call that never reproduces; "
                 "default to an integer and let callers vary it.")
    scope = SIM_CRITICAL

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for node in ast.walk(summary.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = node.args
            pos = args.posonlyargs + args.args
            pairs = list(zip(pos[len(pos) - len(args.defaults):],
                             args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
                      if d is not None]
            for arg, default in pairs:
                if arg.arg in {"seed", "rng"} \
                        and isinstance(default, ast.Constant) \
                        and default.value is None:
                    yield self.violation(
                        summary, default.lineno,
                        f"parameter '{arg.arg}' defaults to None "
                        f"(entropy-seeded); default to an integer seed")


RULES = [UnseededRng, WallClock, DurationClock, GlobalRngSeed,
         SeedDefaultNone]
