"""Verification reports: deterministic, byte-identical for identical inputs.

A report's results are the `CheckItem`s the checkers return.  Each result's
timing field exists in the schema but is always emitted as null: any
wall-clock value would break the byte-identity invariant, which the report
format guarantees for identical inputs and tool version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Tuple

from . import __version__
from .verdicts import CheckItem


@dataclass(frozen=True)
class Report:
    command: str
    input_digest: str
    results: Tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.results)

    @property
    def summary(self) -> str:
        return "pass" if self.ok else "fail"

    def as_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "command": self.command,
            "input_digest": self.input_digest,
            "results": [
                {
                    "id": item.check_id,
                    "verdict": "pass" if item.ok else "fail",
                    "witness": item.witness,
                    "detail": list(item.detail),
                    "timing": None,
                }
                for item in self.results
            ],
            "summary": self.summary,
        }


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def emit_report(report: Report, fmt: str = "text") -> bytes:
    if fmt == "json":
        return (json.dumps(report.as_dict(), indent=2) + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        "doublealg report",
        f"version: {__version__}",
        f"command: {report.command}",
        f"input: {report.input_digest}",
    ]
    for item in report.results:
        lines.append(f"result {item.check_id}: {'pass' if item.ok else 'FAIL'}")
        if item.witness:
            lines.append(f"  witness: {item.witness}")
        for detail_line in item.detail:
            lines.append(f"  | {detail_line}")
    lines.append(f"summary: {report.summary}")
    return ("\n".join(lines) + "\n").encode("utf-8")
