"""Repair and parse ill-formed model responses.

Models frequently wrap JSON in prose or code fences, emit single-quoted
or trailing-comma pseudo-JSON, rename keys, or answer in plain text.
Parsing proceeds in stages, applied only as needed and recorded in the
returned trace:

  1. prose_strip          extract the first balanced bracketed region
                          (code fences removed first)
  2. structural_repair    tolerant reader: single quotes, bare keys,
                          trailing commas, unclosed brackets at EOF
  3. key_normalization    envelope unwrapping plus case-insensitive and
                          synonym-table key/enum mapping against the
                          task's declared response shape
  4. line_fallback        no bracketed region, in a shape that allows
                          bare strings: non-empty lines become items
                          (refusals such as "none": the empty list)

When a JSON value starts at the first bracket, as in a well-formed
answer or JSON inside prose or a fence, the JSON decoder reads it
directly: it is the region the character scan would find, so the scan
and the tolerant reader are skipped.  A well-formed JSON answer thus
records neither prose_strip nor structural_repair; stage 3 still
applies.  Stage 3's key, envelope and enum lookup tables are derived
from the ResponseShape declarations in prompts.py, once per shape.

An item whose text holds a lone surrogate (a JSON escape such as
`\\ud800` without its pair) is dropped with that reason, since no
output can encode it.

Only an answer with no bracketed region, no refusal and no line
fallback raises ParseError; the cache file keeps the raw text.
Parse failures are data, never retried.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from ..textnorm import normalize_label
from .prompts import ResponseShape

DEFAULT_REFUSAL_PHRASES = frozenset({
    "none", "no entities", "no entities found", "no entity", "na", "n/a",
    "nothing", "empty", "no data entities", "no data entities found",
    "no purposes", "no purposes found", "no parties", "no parties found",
    "no actions", "no actions found", "no relations", "no relations found",
    "not applicable", "null", "nil", "no results", "no result",
})

_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class ParseError(Exception):
    """No structured answer could be recovered from a response."""


@dataclass
class RepairTrace:
    stages: list[str] = field(default_factory=list)
    dropped_items: list[tuple[Any, str]] = field(default_factory=list)  # (item, reason)

    @property
    def repaired(self) -> bool:
        return bool(self.stages)

    def note(self, stage: str) -> None:
        if stage not in self.stages:
            self.stages.append(stage)


# -- stage 1: locate the JSON-ish region --

_FENCED = re.compile(r"```[a-zA-Z0-9]*\s*\n?(.*?)```", re.S)
_FENCE_OPEN = re.compile(r"```[a-zA-Z0-9]*\s*\n?(.*)$", re.S)
_OPENER = re.compile(r"[{\[]")
_DECODER = json.JSONDecoder()


def _strip_code_fences(raw: str) -> str:
    # an unterminated fence keeps everything after it
    m = _FENCED.search(raw) or _FENCE_OPEN.search(raw)
    return m.group(1) if m else raw


def _first_region(text: str) -> tuple[Optional[str], Any]:
    """The first balanced {...} or [...] region, or the unbalanced tail,
    and its JSON value, which is None when the region is not JSON.

    A JSON value that starts at the first bracket is that region, since
    the scan follows JSON's strings and brackets and would close exactly
    where the value ends; only other text is scanned.
    """
    opener = _OPENER.search(text)
    if opener is None:
        return None, None
    start = opener.start()
    try:
        value, end = _DECODER.raw_decode(text, start)
    except json.JSONDecodeError:
        return _extract_bracketed(text, start), None
    return text[start:end], value


def _extract_bracketed(text: str, start: int) -> str:
    """The balanced region opened at `start`, or the unbalanced tail."""
    stack: list[str] = []
    in_string: Optional[str] = None
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == in_string:
                in_string = None
            continue
        if ch in "\"'":
            in_string = ch
        elif ch in "{[":
            stack.append("}" if ch == "{" else "]")
        elif ch in "}]":
            if stack and ch == stack[-1]:
                stack.pop()
                if not stack:
                    return text[start:i + 1]
            # mismatched closer: leave for the tolerant reader
    return text[start:]


# -- stage 2: tolerant reader --

_BARE_END = ",]}:\n"
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\", "/": "/"}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class _Tolerant:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _hex4(self, at: int) -> Optional[int]:
        """The four hex digits at `at` as a number, else None."""
        digits = self.text[at:at + 4]
        if len(digits) == 4 and all(c in _HEX_DIGITS for c in digits):
            return int(digits, 16)
        return None

    def value(self) -> Any:
        self._ws()
        ch = self._peek()
        if ch == "{":
            return self.obj()
        if ch == "[":
            return self.arr()
        if ch in "\"'":
            return self.string(ch)
        return self.bare()

    def string(self, quote: str) -> str:
        assert self._peek() == quote
        self.pos += 1
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\" and self.pos + 1 < len(self.text):
                nxt = self.text[self.pos + 1]
                code = self._hex4(self.pos + 2) if nxt == "u" else None
                if code is not None:
                    self.pos += 6
                    # a surrogate pair joins into one character, as in json.loads
                    if 0xD800 <= code < 0xDC00 and self.text.startswith("\\u", self.pos):
                        low = self._hex4(self.pos + 2)
                        if low is not None and 0xDC00 <= low < 0xE000:
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            self.pos += 6
                    out.append(chr(code))
                    continue
                out.append(_ESCAPES.get(nxt, nxt))  # unknown escapes keep the character
                self.pos += 2
                continue
            if ch == quote:
                self.pos += 1
                return "".join(out)
            out.append(ch)
            self.pos += 1
        return "".join(out)  # unterminated string: take the tail

    def bare(self) -> Any:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _BARE_END:
            self.pos += 1
        token = self.text[start:self.pos].strip()
        low = token.casefold()
        if low in ("true",):
            return True
        if low in ("false",):
            return False
        if low in ("null", "none", ""):
            return None
        if _NUMBER_RE.match(token):
            return float(token) if "." in token or "e" in low else int(token)
        return token

    def obj(self) -> dict:
        self.pos += 1
        out: dict = {}
        while True:
            self._ws()
            ch = self._peek()
            if ch == "" or ch == "}":
                self.pos += 1 if ch else 0
                return out
            if ch == "]":       # mismatched closer: it ends the enclosing list too
                return out
            if ch == ",":
                self.pos += 1
                continue
            if ch in "\"'":
                key = self.string(ch)
            else:
                start = self.pos
                while self.pos < len(self.text) and self.text[self.pos] not in ":,}]":
                    self.pos += 1
                key = self.text[start:self.pos].strip()
            self._ws()
            if self._peek() == ":":
                self.pos += 1
                out[key] = self.value()
            elif key:
                out[key] = None

    def arr(self) -> list:
        self.pos += 1
        out: list = []
        while True:
            self._ws()
            ch = self._peek()
            if ch == "" or ch == "]":
                self.pos += 1 if ch else 0
                return out
            if ch == "}":       # mismatched closer: it ends the enclosing object too
                return out
            if ch in ",:":
                self.pos += 1
                continue
            out.append(self.value())


# -- stage 3: shape normalization --

def _match_field(key: str, shape: ResponseShape) -> Optional[str]:
    return shape.field_table.get(normalize_label(key))


def _unwrap_envelope(value: Any, shape: ResponseShape, trace: RepairTrace) -> Any:
    if not isinstance(value, dict):
        return value
    for key, inner in value.items():
        if normalize_label(key) in shape.envelope_labels:
            if key != shape.envelope_keys[0]:
                trace.note("key_normalization")
            return inner
    # a single-object answer carrying the item fields directly
    if any(_match_field(k, shape) for k in value):
        trace.note("key_normalization")
        return [value]
    # mapping answer for two-field shapes: {entity: term, ...}
    if len(shape.fields) == 2 and value and all(
        isinstance(v, (str, int, float)) for v in value.values()
    ):
        trace.note("key_normalization")
        return [{shape.fields[0].name: k, shape.fields[1].name: v} for k, v in value.items()]
    # single unknown wrapper key around a list
    if len(value) == 1:
        inner = next(iter(value.values()))
        if isinstance(inner, list):
            trace.note("key_normalization")
            return inner
    return value


def _normalize_item(item: Any, shape: ResponseShape, trace: RepairTrace) -> Optional[dict]:
    if isinstance(item, str):
        if not shape.allow_string_items:
            trace.dropped_items.append((item, "bare string not valid for this task"))
            return None
        trace.note("key_normalization")
        item = {shape.fields[0].name: item}
    elif isinstance(item, (list, tuple)) and len(item) == len(shape.fields):
        trace.note("key_normalization")
        item = {f.name: v for f, v in zip(shape.fields, item)}
    if not isinstance(item, dict):
        trace.dropped_items.append((item, "not an object"))
        return None

    out: dict = {}
    for key, value in item.items():
        name = _match_field(key, shape)
        if name is None:
            continue
        if name != key:
            trace.note("key_normalization")
        out[name] = value

    result: dict = {}
    for spec in shape.fields:
        value = out.get(spec.name)
        if value is None:
            if spec.required:
                trace.dropped_items.append((item, f"missing field {spec.name!r}"))
                return None
            continue
        if spec.enum_values:
            mapped = spec.enum_table.get(normalize_label(str(value)))
            if mapped is None:
                if spec.required:
                    trace.dropped_items.append((item, f"unknown {spec.name}: {value!r}"))
                    return None
                continue  # optional field, unusable value: omit it
            if mapped != value:
                trace.note("key_normalization")
            result[spec.name] = mapped
        else:
            text = str(value).strip()
            if _SURROGATE_RE.search(text):
                trace.dropped_items.append((item, f"lone surrogate in {spec.name!r}"))
                return None
            result[spec.name] = text
    return result


def _normalize(value: Any, shape: ResponseShape, trace: RepairTrace) -> list[dict]:
    value = _unwrap_envelope(value, shape, trace)
    if value is None:
        return []
    if isinstance(value, (str, int, float)):
        value = [value]
    if isinstance(value, dict):
        value = [value]
    items = []
    for item in value:
        if item is None:
            continue
        normalized = _normalize_item(item, shape, trace)
        if normalized is not None:
            items.append(normalized)
    return items


def _is_refusal(raw: str) -> bool:
    cleaned = re.sub(r"[^0-9a-z/ ]", "", raw.casefold()).strip()
    return cleaned in DEFAULT_REFUSAL_PHRASES or cleaned.rstrip(".") in DEFAULT_REFUSAL_PHRASES


def repair_and_parse(raw: str, shape: ResponseShape) -> tuple[list[dict], RepairTrace]:
    """Parse a raw model response into the task's normalized item list.

    Returns (items, trace); raises ParseError when nothing structured can
    be recovered.  The trace records which repair stages fired and any
    items dropped during normalization.
    """
    trace = RepairTrace()
    stripped = raw.strip()

    defenced = _strip_code_fences(stripped)
    if defenced.strip() != stripped:
        trace.note("prose_strip")
    region, value = _first_region(defenced)

    if region is None:
        if not stripped or _is_refusal(stripped):
            trace.note("refusal")
            return [], trace
        if shape.allow_string_items:
            trace.note("line_fallback")
            lines = []
            for line in stripped.split("\n"):
                line = _BULLET_RE.sub("", line).strip().strip('"').strip()
                if line and not _is_refusal(line):
                    lines.append(line)
            return _normalize(lines, shape, trace), trace
        raise ParseError("no JSON region in response")

    if region.strip() != defenced.strip():
        trace.note("prose_strip")

    if value is None:       # JSON that opens with a bracket is a dict or a list
        trace.note("structural_repair")
        value = _Tolerant(region).value()

    return _normalize(value, shape, trace), trace
