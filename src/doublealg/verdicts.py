"""Verdicts with witnesses, shared by every checker in the package.

Witness selection is deterministic: checks run in lexicographic index
order and the first failure of each axiom family is recorded.

Verdicts are decided eagerly and witnesses are written lazily.  A checker
decides every `ok` at once, in report order, and builds the objects a
failure's witness names; `failed` takes the witness text or a zero-argument
callable that writes it from those objects.  The text is written the first
time `CheckItem.witness` is read, on that item or on any item that
`prefixed` or `as_item` made from it, and only then: a caller that reads
only `ok` prints nothing.  The callable is then dropped, with the objects
it captured.  Every writing reads immutable values, so the text is the
same whenever it is read.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Tuple, Union

Witness = Union[str, Callable[[], str]]


class CheckItem:
    """One check of a report: its id, its verdict, the witness of a failure
    and the lines a report prints under it.

    Immutable.  `witness` may be given as a zero-argument callable that
    returns the text: the first read of `witness` calls it, keeps the text
    and drops the callable.  `==`, `hash` and `repr` read the text, so an
    item equals the one built from that text at once.  `prefixed` and
    `as_item` carry the callable on unread."""

    __slots__ = ("check_id", "ok", "_witness", "detail")

    def __init__(self, check_id: str, ok: bool, witness: Witness = "", detail: Tuple[str, ...] = ()):
        init = object.__setattr__
        init(self, "check_id", check_id)
        init(self, "ok", ok)
        init(self, "_witness", witness)
        init(self, "detail", detail)  # lines a report prints under the item

    @property
    def witness(self) -> str:
        witness = self._witness
        if not isinstance(witness, str):
            witness = witness()
            object.__setattr__(self, "_witness", witness)
        return witness

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> Tuple[str, bool, str, Tuple[str, ...]]:
        return (self.check_id, self.ok, self.witness, self.detail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "CheckItem(check_id={!r}, ok={!r}, witness={!r}, detail={!r})".format(*self._key())

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
        its first failure, left unwritten."""
        first = self.first_failure
        return passed(check_id) if first is None else failed(check_id, first._witness)

    def prefixed(self, prefix: str) -> "CheckReport":
        """The items with `prefix.` before each id; witnesses left
        unwritten."""
        return CheckReport(
            tuple(CheckItem(f"{prefix}.{i.check_id}", i.ok, i._witness, i.detail) for i in self.items)
        )

    def lines(self) -> Tuple[str, ...]:
        return tuple(item.line() for item in self.items)


def passed(check_id: str) -> CheckItem:
    return CheckItem(check_id, True)


def failed(check_id: str, witness: Witness) -> CheckItem:
    """A failed item; `witness` is the text or a callable that writes it,
    called at most once however many items carry the witness on."""
    return CheckItem(check_id, False, witness if isinstance(witness, (str, _Once)) else _Once(witness))


class _Once:
    """A witness written on its first call; then only the text is kept."""

    __slots__ = ("_write", "_text")

    def __init__(self, write: Callable[[], str]):
        self._write = write

    def __call__(self) -> str:
        if self._write is not None:
            self._text = self._write()
            self._write = None
        return self._text
