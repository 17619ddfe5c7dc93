"""Independent brute-force oracles.

These deliberately avoid the library's own algorithms: the substring
oracle enumerates every substring, the matching oracle solves the
assignment exactly over all one-to-one matchings (bitmask DP), and the
line-scan oracle walks the text character by character, and the RDF
serializers sort every triple and regroup.  `reference_corpus_turtle`
writes `corpus.ttl` from one combined graph, as `analyze` did before it
merged the per-policy statements.  `reference_check_invariants`
restates `graph.check_invariants` with a plain scan of the triples for
each question it asks.  `dp_lcs_length`, the
reference matchers, `reference_segment_tasks`, `reference_repair_and_parse`,
`reference_load_cache`, `reference_prompt_digest`, `reference_audit_dict`,
`reference_segment_texts`,
`reference_run_log_records` and the RDF terms `RefIRI`, `RefBNode` and
`RefLiteral` with their `reference_term_key` order are earlier versions
of production code, kept as written.  They exist to check the production implementations, so they
must never import from ppanalyze.eval.metrics, ppanalyze.corpus or ppanalyze.rdfio
internals (the RDF term classes, the gold record types and the gold label
tables are data, not algorithms); the repair copy shares only the
tolerant reader and the refusal test, which it does not check.
"""
from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from ppanalyze.extraction.backend import BackendError
from ppanalyze.rdfio import BNode, IRI


def normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text.casefold()).strip()


def brute_force_lcs(a: str, b: str) -> int:
    """Longest common contiguous substring by enumerating all substrings."""
    if not a or not b:
        return 0
    best = 0
    for i in range(len(a)):
        for j in range(i + best + 1, len(a) + 1):
            if a[i:j] in b:
                best = j - i
            else:
                break
    return best


def dp_lcs_length(a: str, b: str) -> int:
    """Longest common contiguous substring by the O(len(a)*len(b)) DP table
    (the library's earlier implementation, kept as written)."""
    if not a or not b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    best = 0
    for ca in a:
        cur = [0] * (len(b) + 1)
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def brute_force_lcs_ratio(a: str, b: str) -> float:
    na, nb = normalize(a), normalize(b)
    if not na and not nb:
        return 1.0
    if not na or not nb:
        return 0.0
    return brute_force_lcs(na, nb) / max(len(na), len(nb))


def optimal_matching_credit(pred: list[str], gold: list[str], threshold: float = 0.9) -> float:
    """Maximum total credit over all one-to-one pred/gold matchings.

    A pair is matchable iff its lcs ratio clears the threshold (equal
    normalized strings have ratio 1), and earns its ratio as credit.
    Solved exactly with a bitmask DP over gold assignments.
    """
    weights = [
        [brute_force_lcs_ratio(p, g) for g in gold]
        for p in pred
    ]

    n_gold = len(gold)

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> float:
        if i == len(pred):
            return 0.0
        value = best(i + 1, used)  # leave pred[i] unmatched
        for j in range(n_gold):
            if used & (1 << j):
                continue
            if weights[i][j] >= threshold:
                value = max(value, weights[i][j] + best(i + 1, used | (1 << j)))
        return value

    result = best(0, 0)
    best.cache_clear()
    return result


# -- reference span matchers --

def reference_lcs_ratio(a: str, b: str, denominator: str = "max") -> float:
    na, nb = normalize(a), normalize(b)
    if not na and not nb:
        return 1.0
    if not na or not nb:
        return 0.0
    denom = {"max": max(len(na), len(nb)), "gold": len(nb),
             "mean": (len(na) + len(nb)) / 2}[denominator]
    return brute_force_lcs(na, nb) / denom


def reference_match_spans(pred: list[str], gold: list[str], threshold: float = 0.9,
                          denominator: str = "max") -> tuple:
    """(tp, fp, fn, pairs) of the two-pass span matcher."""
    pred_norm = [normalize(p) for p in pred]
    gold_norm = [normalize(g) for g in gold]
    pred_free = set(range(len(pred)))
    gold_free = set(range(len(gold)))
    pairs = []

    for i in sorted(pred_free):
        for j in sorted(gold_free):
            if pred_norm[i] == gold_norm[j]:
                pairs.append((pred[i], gold[j], 1.0))
                pred_free.discard(i)
                gold_free.discard(j)
                break

    candidates = []
    for i in sorted(pred_free):
        for j in sorted(gold_free):
            ratio = reference_lcs_ratio(pred[i], gold[j], denominator)
            if ratio >= threshold:
                candidates.append((-ratio, i, j))
    candidates.sort()
    for neg_ratio, i, j in candidates:
        if i in pred_free and j in gold_free:
            pairs.append((pred[i], gold[j], -neg_ratio))
            pred_free.discard(i)
            gold_free.discard(j)

    return (sum(credit for _, _, credit in pairs), len(pred_free), len(gold_free),
            tuple(pairs))


def reference_score_classification(pred: list[tuple[str, str]], gold: list[tuple[str, str]],
                                   taxonomy, kind: str, threshold: float = 0.9,
                                   denominator: str = "max") -> tuple:
    """(tp, fp, fn, pairs) of the two-pass (span, term) matcher: a pair
    matches only when both terms resolve to the same taxonomy IRI."""
    from ppanalyze.taxonomy import UnresolvedTermError

    def resolve(term):
        try:
            return taxonomy.resolve_term(term, kind).iri
        except UnresolvedTermError:
            return None

    pred_iris = [resolve(term) for _, term in pred]
    gold_iris = [resolve(term) for _, term in gold]
    pred_norm = [normalize(text) for text, _ in pred]
    gold_norm = [normalize(text) for text, _ in gold]
    pred_free = set(range(len(pred)))
    gold_free = set(range(len(gold)))
    pairs = []

    for i in sorted(pred_free):
        if pred_iris[i] is None:
            continue
        for j in sorted(gold_free):
            if pred_iris[i] == gold_iris[j] and pred_norm[i] == gold_norm[j]:
                pairs.append((pred[i][0], gold[j][0], 1.0))
                pred_free.discard(i)
                gold_free.discard(j)
                break

    candidates = []
    for i in sorted(pred_free):
        if pred_iris[i] is None:
            continue
        for j in sorted(gold_free):
            if pred_iris[i] != gold_iris[j]:
                continue
            ratio = reference_lcs_ratio(pred[i][0], gold[j][0], denominator)
            if ratio >= threshold:
                candidates.append((-ratio, i, j))
    candidates.sort()
    for neg_ratio, i, j in candidates:
        if i in pred_free and j in gold_free:
            pairs.append((pred[i][0], gold[j][0], -neg_ratio))
            pred_free.discard(i)
            gold_free.discard(j)

    return (sum(credit for _, _, credit in pairs), len(pred_free), len(gold_free),
            tuple(pairs))


def scan_lines(raw_text: str) -> list[tuple[int, int, str]]:
    """Character-walking line scanner: (start, end, text) of each
    trimmed non-blank line, offsets into raw_text.  CR and LF each end a
    line, so CRLF ends one and the blank line between them yields nothing."""
    out = []
    line_start = 0
    for pos in range(len(raw_text) + 1):
        at_end = pos == len(raw_text)
        if at_end or raw_text[pos] in "\r\n":
            lo, hi = line_start, pos
            while lo < hi and raw_text[lo].isspace():
                lo += 1
            while hi > lo and raw_text[hi - 1].isspace():
                hi -= 1
            if lo < hi:
                out.append((lo, hi, raw_text[lo:hi]))
            line_start = pos + 1
    return out


def reference_segment_texts(raw_text: str) -> list[str]:
    """The segment texts of the earlier segmenter: CRLF and CR rewritten
    to LF, then each trimmed non-blank line between LFs."""
    text = raw_text.replace("\r\n", "\n").replace("\r", "\n")
    return [line.strip() for line in text.split("\n") if line.strip()]


# -- reference RDF serializers --

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
_PN_LOCAL = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


@dataclass(frozen=True)
class RefIRI:
    value: str

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class RefBNode:
    label: str

    def __repr__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True)
class RefLiteral:
    lexical: str
    datatype: Optional[RefIRI] = None
    lang: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.lexical!r}"


def reference_term_key(term) -> tuple:
    """Total order over terms: IRIs, then blank nodes, then literals.  Reads
    only the term attributes, so it orders reference and production terms."""
    if hasattr(term, "value"):
        return (0, term.value, "", "")
    if hasattr(term, "label"):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype.value if term.datatype else "", term.lang or "")


def _qname(value: str, prefixes: dict) -> str | None:
    for prefix, ns in prefixes.items():
        if value.startswith(ns) and _PN_LOCAL.match(value[len(ns):]):
            return f"{prefix}:{value[len(ns):]}"
    return None


def _format(term, prefixes: dict) -> str:
    if isinstance(term, IRI):
        return _qname(term.value, prefixes) or f"<{term.value}>"
    if isinstance(term, BNode):
        return f"_:{term.label}"
    out = '"' + "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in term.lexical) + '"'
    if term.lang:
        return f"{out}@{term.lang}"
    if term.datatype:
        dt = _qname(term.datatype.value, prefixes)
        return f"{out}^^{dt}" if dt else f"{out}^^<{term.datatype.value}>"
    return out


def _sorted_triples(triples) -> list:
    return sorted(triples, key=lambda t: tuple(reference_term_key(x) for x in t))


def reference_ntriples(triples) -> bytes:
    lines = [f"{_format(s, {})} {_format(p, {})} {_format(o, {})} ."
             for s, p, o in _sorted_triples(triples)]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def reference_turtle(triples, prefixes: dict) -> bytes:
    prefixes = dict(sorted(prefixes.items()))
    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in prefixes.items()]
    if prefixes:
        out.append("")
    by_subject: dict = {}
    for t in _sorted_triples(triples):
        by_subject.setdefault(reference_term_key(t[0]), []).append(t)
    for _, group in sorted(by_subject.items()):
        by_pred: dict = {}
        for _, p, o in group:
            by_pred.setdefault(p, []).append(o)
        preds = sorted(by_pred, key=lambda p: (p.value != _RDF_TYPE, reference_term_key(p)))
        lines = []
        for p in preds:
            objs = ", ".join(_format(o, prefixes)
                             for o in sorted(by_pred[p], key=reference_term_key))
            lines.append(f"    {'a' if p.value == _RDF_TYPE else _format(p, prefixes)} {objs}")
        out.append(_format(group[0][0], prefixes) + " " + lines[0].lstrip()
                   + (" ;" if len(lines) > 1 else " ."))
        for i, line in enumerate(lines[1:], start=1):
            out.append(line + (" ;" if i < len(lines) - 1 else " ."))
        out.append("")
    text = "\n".join(out).rstrip("\n")
    return (text + "\n" if text else "").encode("utf-8")


def reference_corpus_turtle(graphs, prefixes: dict) -> bytes:
    """`corpus.ttl` as one combined graph: the union of the policy graphs'
    triples, bound to `prefixes` and then to each graph's own, first
    binding of a prefix kept, serialized whole."""
    triples: set = set()
    bound = dict(prefixes)
    for g in graphs:
        triples |= set(g.triples)
        for prefix, ns in g.prefixes.items():
            bound.setdefault(prefix, ns)
    return reference_turtle(triples, bound)


# -- reference invariant check: plain scans of the triples, no index --

_PPA = "urn:pp-analyze:core#"
_PRACTICE_CLASSES = {IRI(_PPA + name) for name in
                     ("DataPractice", "ThirdPartySharingDisclosure", "DataCollectionUse")}


def reference_check_invariants(g, taxonomy=None) -> list[str]:
    """`graph.check_invariants` as a scan of `g.triples` per question:
    practices, then policies, in term order; then the data and the
    purpose links, each in (subject, object) term order."""
    triples = list(g.triples)
    rdf_type, ppa = IRI(_RDF_TYPE), (lambda name: IRI(_PPA + name))
    problems = []
    practices = {s for (s, p, o) in triples if p == rdf_type and o in _PRACTICE_CLASSES}
    for practice in sorted(practices, key=reference_term_key):
        segments = [o for (s, p, o) in triples if s == practice and p == ppa("sourceSegment")]
        if len(segments) != 1:
            problems.append(f"{practice!r}: {len(segments)} source segment literals (want 1)")
        owners = {s for (s, p, o) in triples if p == ppa("hasPractice") and o == practice}
        if len(owners) != 1:
            problems.append(f"{practice!r}: belongs to {len(owners)} policies (want 1)")
    policies = {s for (s, p, o) in triples if p == rdf_type and o == ppa("PrivacyPolicy")}
    for policy in sorted(policies, key=reference_term_key):
        services = [o for (s, p, o) in triples if s == policy and p == ppa("hasService")]
        if len(services) != 1:
            problems.append(f"{policy!r}: links to {len(services)} services (want 1)")
    if taxonomy is None:
        return problems
    for name, kind in (("hasData", "data"), ("hasPurpose", "purpose")):
        links = sorted(((s, o) for (s, p, o) in triples if p == ppa(name)),
                       key=lambda so: (reference_term_key(so[0]), reference_term_key(so[1])))
        for s, o in links:
            node = taxonomy.nodes.get(o.value) if isinstance(o, IRI) else None
            if node is None:
                problems.append(f"{s!r}: {kind} object {o!r} not in taxonomy")
            elif node.kind != kind:
                problems.append(f"{s!r}: {o!r} is not a {kind} term")
    return problems


# -- reference gold views --

# The brat label maps, written out as literals so that the reference
# view does not read the vocabulary table it checks.
ENTITY_KIND_MAP = {
    "data": "data",
    "dataentity": "data",
    "purpose": "purpose",
    "purposeentity": "purpose",
    "party": "party",
    "firstparty": "party",
    "firstpartyentity": "party",
    "thirdparty": "party",
    "thirdpartyentity": "party",
    "user": "party",
    "datacollector": "party",
    "dataprovider": "party",
    "datareceiver": "party",
    "datasharer": "party",
    "dataholder": "party",
    "dataprotector": "party",
}

PARTY_SUBTYPE_MAP = {
    "firstparty": "first_party",
    "firstpartyentity": "first_party",
    "thirdparty": "third_party",
    "thirdpartyentity": "third_party",
    "user": "user",
}

EVENT_SUBTYPE_MAP = {
    "collectionuse": "collection_use",
    "datacollectionuse": "collection_use",
    "thirdpartysharingdisclosure": "third_party_sharing_disclosure",
    "thirdpartycollectionuse": "third_party_sharing_disclosure",
    "storageretentiondeletion": "storage_retention_deletion",
    "datastorageretentiondeletion": "storage_retention_deletion",
    "securityprotection": "security_protection",
    "datasecurityprotection": "security_protection",
}

ROLE_EVENT_MAP = {
    "data": "HAS_DATA",
    "datacollected": "HAS_DATA",
    "datashared": "HAS_DATA",
    "dataretained": "HAS_DATA",
    "purpose": "HAS_PURPOSE",
    "purposeargument": "HAS_PURPOSE",
    "datacollector": "PERFORMED_BY",
    "datasharer": "PERFORMED_BY",
    "dataholder": "PERFORMED_BY",
    "dataprotector": "PERFORMED_BY",
    "dataprovider": "DATA_PROVIDED_BY",
    "datareceiver": "DATA_SHARED_WITH",
}

def reference_segment_tasks(gold_doc, task, taxonomy=None) -> list:
    """Per-segment gold samples of one task, one branch per task."""
    from ppanalyze.corpus import GoldSlice
    from ppanalyze.eval.gold import SegmentTask
    from ppanalyze.extraction.prompts import TaskKind
    from ppanalyze.taxonomy import UnresolvedTermError

    def label(value: str) -> str:
        return re.sub(r"[^0-9a-z]", "", value.casefold())

    def kind_of(entity_type):
        return ENTITY_KIND_MAP.get(label(entity_type))

    def party_subtype_of(entity_type):
        return PARTY_SUBTYPE_MAP.get(label(entity_type))

    def action_subtype_of(event_type):
        return EVENT_SUBTYPE_MAP.get(label(event_type))

    def event_type_of(role):
        return ROLE_EVENT_MAP.get(label(re.sub(r"\d+$", "", role)))

    def ordered_entities(slice_, kind):
        triggers = {ev.trigger.id for ev in slice_.events}
        return sorted(
            (ent for ent in slice_.entities
             if kind_of(ent.type) == kind and ent.id not in triggers),
            key=lambda ent: (ent.char_start, ent.id),
        )

    def ordered_events(slice_):
        return sorted(slice_.events, key=lambda ev: (ev.trigger.char_start, ev.id))

    def local_ids(slice_):
        entities = []
        for kind in ("data", "purpose", "party"):
            for ent in ordered_entities(slice_, kind):
                entities.append((f"e{len(entities)}", kind, ent))
        events = [(f"a{i}", ev) for i, ev in enumerate(ordered_events(slice_))]
        return entities, events

    out = []
    for segment in gold_doc.doc.segments:
        slice_ = gold_doc.alignment.get(segment.index, GoldSlice())
        if task is TaskKind.DATA_RECOGNITION or task is TaskKind.PURPOSE_RECOGNITION:
            kind = "data" if task is TaskKind.DATA_RECOGNITION else "purpose"
            spans = [ent.covering_text for ent in ordered_entities(slice_, kind)]
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                gold_spans=tuple(spans),
                gold_items=tuple({"text": s} for s in spans),
            ))
        elif task is TaskKind.PARTY_RECOGNITION:
            items = []
            for ent in ordered_entities(slice_, "party"):
                item = {"text": ent.covering_text}
                subtype = party_subtype_of(ent.type)
                if subtype:
                    item["subtype"] = subtype
                items.append(item)
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                gold_spans=tuple(i["text"] for i in items),
                gold_items=tuple(items),
            ))
        elif task is TaskKind.ACTION_RECOGNITION:
            items = []
            for ev in ordered_events(slice_):
                subtype = action_subtype_of(ev.type)
                item = {"text": ev.trigger.covering_text}
                if subtype:
                    item["subtype"] = subtype
                items.append(item)
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                gold_spans=tuple(i["text"] for i in items),
                gold_items=tuple(items),
            ))
        elif task in (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION):
            kind = "data" if task is TaskKind.DATA_CLASSIFICATION else "purpose"
            pairs = []
            items = []
            for ent in ordered_entities(slice_, kind):
                term = ent.fine_grained
                if not term:
                    continue
                iri = term
                if taxonomy is not None:
                    try:
                        iri = taxonomy.resolve_term(term, kind).iri
                    except UnresolvedTermError:
                        continue
                pairs.append((ent.covering_text, iri))
                items.append({"entity_text": ent.covering_text, "term": term})
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                extras=tuple(p[0] for p in pairs) or None,
                gold_pairs=tuple(pairs),
                gold_items=tuple(items),
            ))
        elif task is TaskKind.RELATION_RECOGNITION:
            entities, events = local_ids(slice_)
            entity_id_of = {ent.id: local_id for local_id, _, ent in entities}
            action_id_of = {ev.id: local_id for local_id, ev in events}
            trigger_id_of = {ev.trigger.id: local_id for local_id, ev in events}
            items = []
            for local_id, ev in events:
                for role, target in ev.roles:
                    event_type = event_type_of(role)
                    if event_type is None:
                        continue
                    target_id = entity_id_of.get(target) or action_id_of.get(target) \
                        or trigger_id_of.get(target)
                    if target_id is None:
                        continue
                    items.append({"id1": local_id, "id2": target_id, "type": event_type})
            extras = tuple(
                (local_id, kind, ent.covering_text) for local_id, kind, ent in entities
            ) + tuple(
                (local_id, "action", ev.trigger.covering_text) for local_id, ev in events
            )
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                extras=extras or None,
                gold_items=tuple(items),
                gold_spans=tuple(f"{i['id1']} {i['id2']} {i['type']}" for i in items),
            ))
        else:
            raise ValueError(f"unknown task: {task}")
    return out


# -- reference response repair --

def _reference_label(text: str) -> str:
    return re.sub(r"[^0-9a-z]", "", text.casefold())


def _reference_strip_code_fences(raw: str) -> str:
    m = re.search(r"```[a-zA-Z0-9]*\s*\n?(.*?)```", raw, re.S)
    if m:
        return m.group(1)
    m = re.search(r"```[a-zA-Z0-9]*\s*\n?(.*)$", raw, re.S)
    if m:
        return m.group(1)
    return raw


def _reference_extract_bracketed(text: str):
    start = None
    for i, ch in enumerate(text):
        if ch in "{[":
            start = i
            break
    if start is None:
        return None
    stack: list[str] = []
    in_string = None
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
    return text[start:]


def _reference_match_field(key, fields):
    nk = _reference_label(key)
    for f in fields:
        if nk == _reference_label(f.name) or any(nk == _reference_label(s) for s in f.synonyms):
            return f.name
    return None


def _reference_map_enum(value, spec):
    nv = _reference_label(str(value))
    for canonical in spec.enum_values:
        if nv == _reference_label(canonical):
            return canonical
    for alias, canonical in spec.enum_synonyms:
        if nv == _reference_label(alias):
            return canonical
    return None


def _reference_unwrap_envelope(value, shape, trace):
    if not isinstance(value, dict):
        return value
    normalized_envelopes = {_reference_label(k) for k in shape.envelope_keys}
    for key, inner in value.items():
        if _reference_label(key) in normalized_envelopes:
            if key != shape.envelope_keys[0]:
                trace.note("key_normalization")
            return inner
    if shape.fields and any(_reference_match_field(k, shape.fields) for k in value):
        trace.note("key_normalization")
        return [value]
    if len(shape.fields) == 2 and value and all(
        isinstance(v, (str, int, float)) for v in value.values()
    ):
        trace.note("key_normalization")
        return [{shape.fields[0].name: k, shape.fields[1].name: v} for k, v in value.items()]
    if len(value) == 1:
        inner = next(iter(value.values()))
        if isinstance(inner, list):
            trace.note("key_normalization")
            return inner
    return value


def _reference_normalize_item(item, shape, trace):
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
        name = _reference_match_field(key, shape.fields)
        if name is None:
            continue
        if _reference_label(key) != _reference_label(name) or name != key:
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
            mapped = _reference_map_enum(value, spec)
            if mapped is None:
                if spec.required:
                    trace.dropped_items.append((item, f"unknown {spec.name}: {value!r}"))
                    return None
                continue
            if mapped != value:
                trace.note("key_normalization")
            result[spec.name] = mapped
        else:
            text = str(value).strip()
            if any(0xD800 <= ord(ch) <= 0xDFFF for ch in text):
                trace.dropped_items.append((item, f"lone surrogate in {spec.name!r}"))
                return None
            result[spec.name] = text
    return result


def _reference_normalize(value, shape, trace):
    value = _reference_unwrap_envelope(value, shape, trace)
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
        normalized = _reference_normalize_item(item, shape, trace)
        if normalized is not None:
            items.append(normalized)
    return items


def reference_repair_and_parse(raw: str, shape):
    """Every answer through the staged path, with the label tables
    rebuilt on each call; the tolerant reader and the refusal test are
    production's, so they are not what this compares."""
    from ppanalyze.extraction.repair import (
        _BULLET_RE,
        ParseError,
        RepairTrace,
        _is_refusal,
        _Tolerant,
    )

    trace = RepairTrace()
    stripped = raw.strip()

    defenced = _reference_strip_code_fences(stripped)
    if defenced.strip() != stripped:
        trace.note("prose_strip")
    region = _reference_extract_bracketed(defenced)

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
            return _reference_normalize(lines, shape, trace), trace
        raise ParseError("no JSON region in response")

    if region.strip() != defenced.strip():
        trace.note("prose_strip")

    try:
        value = json.loads(region)
    except json.JSONDecodeError:
        trace.note("structural_repair")
        value = _Tolerant(region).value()

    try:
        return _reference_normalize(value, shape, trace), trace
    except TypeError as exc:
        raise ParseError(str(exc)) from exc


# -- response cache loader: the whole-file reader that kept every record --

def _reference_read_record(line: Union[str, bytes]) -> dict:
    record = json.loads(line)
    if not (isinstance(record, dict) and isinstance(record.get("key"), str)
            and isinstance(record.get("response"), str)):
        raise ValueError("not a record with a string key and response")
    return record


def reference_load_cache(path: Path) -> tuple[dict[str, dict], Optional[int], bool]:
    """The records kept by key, the offset a torn tail is cut at, and
    whether a kept last line lacks its newline."""
    entries: dict[str, dict] = {}
    torn_at: Optional[int] = None
    unterminated = False
    data = path.read_bytes()
    cut = data.rfind(b"\n") + 1
    try:
        lines = data[:cut].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise BackendError(f"cache {path} is not UTF-8: {exc}") from exc
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = _reference_read_record(line)
        except ValueError as exc:
            raise BackendError(f"corrupt cache line {line_no} in {path}: {exc}") from exc
        entries.setdefault(record["key"], record)
    tail = data[cut:]
    if tail.strip():
        try:
            record = _reference_read_record(tail)
            entries.setdefault(record["key"], record)
            unterminated = True
        except ValueError:
            torn_at = cut
            warnings.warn(f"skipped torn last line {len(lines)} in {path} "
                          f"({len(tail)} bytes without a newline)", stacklevel=2)
    return entries, torn_at, unterminated


# -- prompt digest: the whole payload encoded and hashed on every call --

def reference_prompt_digest(model: str, task: str, prompt) -> str:
    payload = json.JSONEncoder(ensure_ascii=False).encode([model, task, prompt.system,
                                                           prompt.user])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- audit and run-log writers: one dict per record, written by json --

def reference_audit_dict(result) -> dict:
    """The audit object of an `ExtractionResult`, as `analyze` wrote it
    with `json.dumps(..., indent=2, ensure_ascii=False)`."""
    return {
        "service_id": result.service_id,
        "source_uri": result.source_uri,
        "segments": [
            {
                "index": seg.segment_index,
                "text": seg.segment_text,
                "failed": seg.failed,
                "spans": [
                    {k: v for k, v in vars(span).items() if v is not None and v is not False}
                    for span in seg.spans
                ],
                "relations": [vars(rel) for rel in seg.relations],
                "notes": list(seg.notes),
                "responses": {
                    name: {k: v for k, v in vars(trace).items() if v not in (None, (), False)}
                    for name, trace in sorted(seg.traces.items())
                },
            }
            for seg in result.segments
        ],
    }


def reference_run_log_records(service_id: str, result, build_log):
    """One policy's run-log records, each written as one
    `json.dumps(record, ensure_ascii=False)` line."""
    for seg in result.segments:
        for name, trace in sorted(seg.traces.items()):
            yield {
                "event": "backend_call" if not trace.skipped else "task_skipped",
                "service_id": service_id,
                "segment": seg.segment_index,
                "task": name,
                "digest": trace.digest,
                "from_cache": trace.from_cache,
                "repaired": trace.repaired,
                "repair_stages": list(trace.repair_stages),
                "error": trace.error,
            }
        for note in seg.notes:
            yield {
                "event": "note",
                "service_id": service_id,
                "segment": seg.segment_index,
                "note": note,
            }
    for record in build_log.records:
        yield {"event": "build_skip", "service_id": service_id, "note": record}
