"""Verdicts with witnesses, shared by every checker in the package.

Witness selection is deterministic: checks run in lexicographic index
order and the first failure of each axiom family is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class CheckItem:
    check_id: str
    ok: bool
    witness: str = ""
    detail: Tuple[str, ...] = ()  # lines a report prints under the item

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        suffix = f"  [{self.witness}]" if self.witness else ""
        return f"{self.check_id}: {status}{suffix}"


@dataclass(frozen=True)
class CheckReport:
    items: Tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def first_failure(self) -> CheckItem | None:
        for item in self.items:
            if not item.ok:
                return item
        return None

    def as_item(self, check_id: str) -> CheckItem:
        """This report as one item: passed, or failed with the witness of
        its first failure."""
        first = self.first_failure
        return passed(check_id) if first is None else failed(check_id, first.witness)

    def prefixed(self, prefix: str) -> "CheckReport":
        return CheckReport(
            tuple(
                CheckItem(f"{prefix}.{i.check_id}", i.ok, i.witness, i.detail)
                for i in self.items
            )
        )

    def lines(self) -> Tuple[str, ...]:
        return tuple(item.line() for item in self.items)


def passed(check_id: str) -> CheckItem:
    return CheckItem(check_id, True)


def failed(check_id: str, witness: str) -> CheckItem:
    return CheckItem(check_id, False, witness)
