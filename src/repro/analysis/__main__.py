"""CLI for the simulation-safety static analyzer.

Exit status: ``0`` clean, ``1`` findings reported, ``2`` usage error.

Findings print as text lines or one JSON document.  A deliberate
violation is suppressed in the source, with ``# repro: noqa[RULE]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import ALL_RULES, RULE_IDS, Finding, analyze

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Simulation-safety static analyzer: determinism, "
        "phase-contract, RNG-lineage and cache-key lints (see DESIGN.md "
        "S22/S27).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings as human-readable lines or one JSON document",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids to run exclusively "
        "(repeatable; e.g. --select DET001,DET002)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids to skip (repeatable)",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="GLOB",
        help="skip discovered files matching this fnmatch pattern "
        "(repeatable; explicit path arguments are exempt — used to "
        "keep the deliberately-violating fixture corpus out of "
        "directory runs)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the findings as one JSON document to PATH "
        "(CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split_rule_ids(
    values: Optional[List[str]], flag: str
) -> Optional[List[str]]:
    if values is None:
        return None
    ids: List[str] = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    unknown = sorted(set(ids) - set(RULE_IDS))
    if unknown:
        raise SystemExit(
            f"error: unknown rule id(s) for {flag}: {', '.join(unknown)}; "
            f"known: {', '.join(RULE_IDS)}"
        )
    return ids


def _json_document(findings: List[Finding], paths: List[str]) -> str:
    return json.dumps(
        {
            "paths": paths,
            "rules": [
                {"id": rule.id, "summary": rule.summary} for rule in ALL_RULES
            ],
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
        },
        indent=2,
        sort_keys=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:<10} {rule.summary}")
        return 0
    try:
        select = _split_rule_ids(args.select, "--select")
        ignore = _split_rule_ids(args.ignore, "--ignore")
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    findings = analyze(
        args.paths, select=select, ignore=ignore, exclude=args.exclude
    )

    document = _json_document(findings, list(args.paths))
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    if args.format == "text":
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    else:
        print(document)
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (head, grep -q) closed the pipe early;
        # that is its prerogative, not an analyzer failure.
        sys.exit(0)
