"""The two text normalizations every comparison in the package uses."""
from __future__ import annotations

import re


def normalize_text(text: str) -> str:
    """Case-fold and collapse whitespace runs to single spaces."""
    return re.sub(r"\s+", " ", text.casefold()).strip()


def normalize_label(text: str) -> str:
    """Case-fold and strip every non-alphanumeric character."""
    return re.sub(r"[^0-9a-z]", "", text.casefold())
