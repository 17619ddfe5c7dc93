"""Synthetic gold corpus builder for selection-cardinality tests."""
from __future__ import annotations

from ppanalyze.corpus import GoldAnnotationSet, GoldEntity, align_gold
from ppanalyze.eval.gold import GoldDocument

from .conftest import make_document


def synthetic_gold_corpus(n_nonempty: int, n_empty: int) -> list[GoldDocument]:
    lines = [f"we collect your item-{i} data here." for i in range(n_nonempty)]
    lines += [f"nothing to see on line {i}." for i in range(n_empty)]
    text = "\n".join(lines) + "\n"
    doc = make_document(text, "synthetic")
    entities = []
    for i in range(n_nonempty):
        surface = f"item-{i} data"
        start = text.index(surface)
        entities.append(GoldEntity(
            id=f"T{i + 1}", type="data", char_start=start, covering_text=surface,
        ))
    gold = GoldAnnotationSet("synthetic", tuple(entities), (), ())
    return [GoldDocument(doc=doc, gold=gold, alignment=align_gold(gold, doc))]
