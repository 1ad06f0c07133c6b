"""Command-line entry point: ``python -m repro.check``.

Runs the repo-specific linter over the source tree, optionally the
whole-program flow analysis (``--all``) and the seeded
double-execution determinism probe, and prints a summary in the
requested ``--format``.  ``--sarif`` additionally writes the flow
findings as a SARIF artefact for code-scanning upload.  Exit status 0
iff everything passed: any lint violation or flow finding that no
``# repro: allow[...]`` pragma waives fails the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.check.determinism import PROBE_WORKLOADS
from repro.check.report import default_src_root, run_checks

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="determinism & invariant checks for the repro tree")
    parser.add_argument(
        "--src", type=Path, default=None,
        help="directory containing the repro package "
             "(default: the imported one)")
    parser.add_argument(
        "--all", action="store_true", dest="run_all",
        help="also run the whole-program flow analysis "
             "(taint, seed-flow, pickle-safety, contract-flow); "
             "probes stay opt-in via --probe")
    parser.add_argument(
        "--lint-only", action="store_true",
        help="skip the determinism probes")
    parser.add_argument(
        "--probe", action="append", choices=sorted(PROBE_WORKLOADS),
        default=None, metavar="WORKLOAD",
        help="probe workload(s) to double-run (default: fig8 unless "
             "--all/--lint-only); repeatable")
    parser.add_argument(
        "--runs", type=int, default=2,
        help="executions per probe (default 2)")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the probe runs (default 0)")
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable runtime sanitizers during the probe runs")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"),
        default="text",
        help="stdout format (sarif covers the flow findings only)")
    parser.add_argument(
        "--sarif", type=Path, default=None, metavar="PATH",
        help="also write the flow findings as SARIF here")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the JSON report here ('-' for stdout)")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the human-readable summary")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    src = args.src if args.src is not None else default_src_root()
    if not (src / "repro").is_dir():
        print(f"error: {src} does not contain a 'repro' package",
              file=sys.stderr)
        return 2

    if args.probe is not None:
        probes: List[str] = args.probe
    elif args.lint_only or args.run_all:
        probes = []
    else:
        probes = ["fig8"]

    if args.sanitize:
        from repro.check import sanitizers

        sanitizers.enable()

    report = run_checks(src_root=src, probe_workloads=probes,
                        seed=args.seed, runs=args.runs,
                        flow=args.run_all)

    if args.json is not None:
        payload = report.to_json()
        if str(args.json) == "-":
            print(payload)
        else:
            args.json.write_text(payload + "\n", encoding="utf-8")
    if args.sarif is not None or args.format == "sarif":
        from repro.check.flow import sarif_json

        sarif = sarif_json(report.flow.findings if report.flow else [])
        if args.sarif is not None:
            args.sarif.parent.mkdir(parents=True, exist_ok=True)
            args.sarif.write_text(sarif + "\n", encoding="utf-8")
        if args.format == "sarif":
            print(sarif)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "text" and not args.quiet:
        print(report.render())

    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
