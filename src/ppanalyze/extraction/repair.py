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
  4. line_fallback        no bracketed region at all: non-empty lines
                          become string entries (refusal phrases such
                          as "none" become the empty list)

Anything irrecoverable raises ParseError carrying the raw text, which
callers retain for audit.  Parse failures are data, never retried.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from ..textnorm import normalize_label
from .prompts import FieldSpec, ResponseShape

DEFAULT_REFUSAL_PHRASES = frozenset({
    "none", "no entities", "no entities found", "no entity", "na", "n/a",
    "nothing", "empty", "no data entities", "no data entities found",
    "no purposes", "no purposes found", "no parties", "no parties found",
    "no actions", "no actions found", "no relations", "no relations found",
    "not applicable", "null", "nil", "no results", "no result",
})

_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


class ParseError(Exception):
    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


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

def _strip_code_fences(raw: str) -> str:
    m = re.search(r"```[a-zA-Z0-9]*\s*\n?(.*?)```", raw, re.S)
    if m:
        return m.group(1)
    # unterminated fence: keep everything after it
    m = re.search(r"```[a-zA-Z0-9]*\s*\n?(.*)$", raw, re.S)
    if m:
        return m.group(1)
    return raw


def _extract_bracketed(text: str) -> Optional[str]:
    """First balanced {...} or [...] region, or the unbalanced tail."""
    start = None
    for i, ch in enumerate(text):
        if ch in "{[":
            start = i
            break
    if start is None:
        return None
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


class _Tolerant:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

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
                mapped = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\", "/": "/"}
                if nxt == "u" and self.pos + 5 < len(self.text):
                    out.append(chr(int(self.text[self.pos + 2:self.pos + 6], 16)))
                    self.pos += 6
                    continue
                out.append(mapped.get(nxt, nxt))
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

def _match_field(key: str, fields: tuple[FieldSpec, ...]) -> Optional[str]:
    nk = normalize_label(key)
    for f in fields:
        if nk == normalize_label(f.name) or any(nk == normalize_label(s) for s in f.synonyms):
            return f.name
    return None


def _map_enum(value: Any, spec: FieldSpec) -> Optional[str]:
    nv = normalize_label(str(value))
    for canonical in spec.enum_values:
        if nv == normalize_label(canonical):
            return canonical
    for alias, canonical in spec.enum_synonyms:
        if nv == normalize_label(alias):
            return canonical
    return None


def _unwrap_envelope(value: Any, shape: ResponseShape, trace: RepairTrace) -> Any:
    if not isinstance(value, dict):
        return value
    normalized_envelopes = {normalize_label(k) for k in shape.envelope_keys}
    for key, inner in value.items():
        if normalize_label(key) in normalized_envelopes:
            if key != shape.envelope_keys[0]:
                trace.note("key_normalization")
            return inner
    # a single-object answer carrying the item fields directly
    if shape.fields and any(_match_field(k, shape.fields) for k in value):
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
        item = {shape.primary_field: item}
    elif isinstance(item, (list, tuple)) and len(item) == len(shape.fields):
        trace.note("key_normalization")
        item = {f.name: v for f, v in zip(shape.fields, item)}
    if not isinstance(item, dict):
        trace.dropped_items.append((item, "not an object"))
        return None

    out: dict = {}
    for key, value in item.items():
        name = _match_field(key, shape.fields)
        if name is None:
            continue
        if normalize_label(key) != normalize_label(name) or name != key:
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
            mapped = _map_enum(value, spec)
            if mapped is None:
                if spec.required:
                    trace.dropped_items.append((item, f"unknown {spec.name}: {value!r}"))
                    return None
                continue  # optional field, unusable value: omit it
            if mapped != value:
                trace.note("key_normalization")
            result[spec.name] = mapped
        else:
            result[spec.name] = str(value).strip()
    return result


def _normalize(value: Any, shape: ResponseShape, trace: RepairTrace) -> list[dict]:
    value = _unwrap_envelope(value, shape, trace)
    if value is None:
        return []
    if isinstance(value, (str, int, float)):
        value = [value]
    if isinstance(value, dict):
        value = [value]
    if not isinstance(value, list):
        raise TypeError(f"cannot shape value of type {type(value).__name__}")
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
    region = _extract_bracketed(defenced)

    if region is None:
        if not stripped or _is_refusal(stripped):
            trace.note("refusal")
            return [], trace
        if shape.allow_string_items or not shape.fields:
            trace.note("line_fallback")
            lines = []
            for line in stripped.split("\n"):
                line = _BULLET_RE.sub("", line).strip().strip('"').strip()
                if line and not _is_refusal(line):
                    lines.append(line)
            return _normalize(lines, shape, trace), trace
        raise ParseError("no JSON region in response", raw)

    if region.strip() != defenced.strip():
        trace.note("prose_strip")

    try:
        value = json.loads(region)
    except json.JSONDecodeError:
        trace.note("structural_repair")
        value = _Tolerant(region).value()

    try:
        return _normalize(value, shape, trace), trace
    except TypeError as exc:
        raise ParseError(str(exc), raw) from exc
