"""Pass/fail result carried by every structural check in the library."""

from __future__ import annotations

from typing import Any, NamedTuple


class Verdict(NamedTuple):
    """Outcome of a check: ``ok`` plus a witness describing the first failure.

    A passing verdict has ``witness is None``.  A failing verdict carries a
    small picklable object (usually a dict) naming the offending element and
    the identity that broke.
    """

    ok: bool
    witness: Any = None

    @staticmethod
    def passed() -> "Verdict":
        return Verdict(True, None)

    @staticmethod
    def failed(witness: Any) -> "Verdict":
        return Verdict(False, witness)

