"""Micro precision/recall/F1 scoring of predicted relations at four levels.

Matching keys refine from the bare unordered identifier pair up to the
pair plus relation type plus novelty.  Counts are pooled across all
documents (micro averaging) before the metrics are computed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Collection, Mapping, Sequence

from .corpus import Document, RelationAnnotation, validate_predictions


class MatchLevel(Enum):
    PAIR = "pair"
    PAIR_TYPE = "pair+type"
    PAIR_NOVELTY = "pair+novelty"
    PAIR_TYPE_NOVELTY = "pair+type+novelty"


# Which fields of the full key (pmid, pair_key, relation_type, novelty)
# each level matches on.
_PROJECTIONS = {
    MatchLevel.PAIR: itemgetter(0, 1),
    MatchLevel.PAIR_TYPE: itemgetter(0, 1, 2),
    MatchLevel.PAIR_NOVELTY: itemgetter(0, 1, 3),
    MatchLevel.PAIR_TYPE_NOVELTY: itemgetter(0, 1, 2, 3),
}


def _full_key(pmid: str, rel: RelationAnnotation) -> tuple:
    return (pmid, rel.pair_key(), rel.relation_type, rel.novelty)


def _counts(gold_keys: set, pred_keys: set) -> tuple[int, int, int]:
    tp = len(gold_keys & pred_keys)
    return tp, len(pred_keys) - tp, len(gold_keys) - tp


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with the degenerate-count conventions.

    All-zero counts score 1.0 (nothing to find, nothing found); zero TP
    with any FP or FN scores 0.0.
    """
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    if tp == 0:
        return (1.0, 1.0, 1.0) if fp == 0 and fn == 0 else (0.0, 0.0, 0.0)
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return p, r, 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class LevelMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "LevelMetrics":
        p, r, f = prf(tp, fp, fn)
        return cls(tp, fp, fn, p, r, f)

    def to_json_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
        }


@dataclass(frozen=True)
class MetricsReport:
    levels: dict[MatchLevel, LevelMetrics]
    per_relation_type: dict[str, LevelMetrics]

    def to_json_dict(self) -> dict:
        return {
            "levels": {lvl.value: m.to_json_dict() for lvl, m in self.levels.items()},
            "per_relation_type": {
                t: m.to_json_dict() for t, m in sorted(self.per_relation_type.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def evaluate(
    gold_corpus: Sequence[Document],
    predictions: Mapping[str, Collection[RelationAnnotation]],
) -> MetricsReport:
    """Score predictions against gold relations, pooled across documents.

    The predictions are checked by :func:`~entrex.corpus.validate_predictions`
    with the relation rules each gold :class:`~entrex.corpus.Document` passed
    when it was constructed, so every relation is one pair of its document
    and keys are unique at every level.
    """
    validate_predictions(gold_corpus, predictions)
    gold_keys = [_full_key(doc.pmid, rel) for doc in gold_corpus for rel in doc.relations]
    pred_keys = [_full_key(pmid, rel) for pmid, rels in predictions.items() for rel in rels]
    key_sets = {
        level: (set(map(_PROJECTIONS[level], gold_keys)), set(map(_PROJECTIONS[level], pred_keys)))
        for level in MatchLevel
    }
    levels = {level: LevelMetrics.from_counts(*_counts(*sets)) for level, sets in key_sets.items()}
    # Per relation type: the pair+type keys grouped by their type field.
    by_type: defaultdict[str, tuple[set, set]] = defaultdict(lambda: (set(), set()))
    for side, keys in enumerate(key_sets[MatchLevel.PAIR_TYPE]):
        for key in keys:
            by_type[key[2]][side].add(key)
    per_type = {t: LevelMetrics.from_counts(*_counts(*by_type[t])) for t in sorted(by_type)}
    return MetricsReport(levels=levels, per_relation_type=per_type)
