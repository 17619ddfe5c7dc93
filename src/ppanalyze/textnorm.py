"""The two text normalizations every comparison in the package uses."""
from __future__ import annotations

import re

_WHITESPACE_RUN = re.compile(r"\s+")
_NOT_ALNUM = re.compile(r"[^0-9a-z]")


def normalize_text(text: str) -> str:
    """Case-fold and collapse whitespace runs to single spaces."""
    return _WHITESPACE_RUN.sub(" ", text.casefold()).strip()


def normalize_label(text: str) -> str:
    """Case-fold and strip every non-alphanumeric character."""
    return _NOT_ALNUM.sub("", text.casefold())
