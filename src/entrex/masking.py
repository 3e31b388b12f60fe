"""Entity-aware masking: one builder, ``build_pretraining_instances``.

Selection is per identifier: each distinct groundable identifier is an
independent Bernoulli(threshold) draw, repaired so that at least one
identifier stays unmasked and at least one is masked.  Masking an
identifier replaces every token of every one of its mentions with the
MASK token and records one (token range, identifier, type) target per
masked mention.  Instances are framed by ``tokenizer.frame``, so target
ranges are framed offsets (document token ``i`` is token ``i + 1``); a
target cut is dropped.  A ``MaskedInstance`` is valid by construction.
Each document's draw is seeded by the epoch seed and its PMID's sha256
(``_document_rng``), so the epoch seed is the only masking seed.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tokenizer
from .corpus import Document
from .tokenizer import (
    MASK_ID,
    MAX_LEN,
    Vocabulary,
    frame,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MaskingConfig:
    threshold: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0,1], got {self.threshold}")


@dataclass(frozen=True)
class MaskedTarget:
    token_start: int
    token_end: int
    identifier_index: int
    type_index: int


@dataclass(frozen=True)
class MaskedInstance:
    """A framed token sequence with masked entity spans and their recovery targets."""

    pmid: str
    token_ids: tuple[int, ...]
    masked_targets: tuple[MaskedTarget, ...]

    def __post_init__(self):
        """At least one target; each target span non-empty, after CLS and before SEP."""
        if not self.masked_targets:
            raise ValueError(f"PMID {self.pmid}: masked instance has no targets")
        sep = len(self.token_ids) - 1
        for t in self.masked_targets:
            if not 1 <= t.token_start < t.token_end <= sep:
                raise ValueError(
                    f"PMID {self.pmid}: target span [{t.token_start},{t.token_end}) is not inside the body [1,{sep})"
                )


def _draw_selection(identifiers: Sequence[str], threshold: float, rng: np.random.Generator) -> set[str]:
    """Draw the identifiers to mask from at least two.

    An all-selected draw unmasks one identifier at random and an empty
    draw masks one, so at least one is masked and at least one is not.
    """
    selected = [i for i in identifiers if rng.random() < threshold]
    if len(selected) == len(identifiers):
        selected.pop(int(rng.integers(len(selected))))
    elif not selected:
        selected.append(identifiers[int(rng.integers(len(identifiers)))])
    return set(selected)


def _document_rng(epoch_seed: int, pmid: str) -> np.random.Generator:
    pmid_hash = int.from_bytes(hashlib.sha256(pmid.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng([epoch_seed, pmid_hash])


def build_pretraining_instances(
    corpus: Sequence[Document],
    vocab: Vocabulary,
    cfg: MaskingConfig,
    epoch_seed: int,
    max_len: int = MAX_LEN,
) -> list[MaskedInstance]:
    """One framed masked instance per eligible document, fully seed-determined.

    A composite mention (several identifiers) has one target: the
    lexicographically first of its selected identifiers (``hit[0]``).
    A document with fewer than 2 groundable identifiers is skipped, and
    so is one whose every target the frame cuts; both skips are logged,
    and a document that loses only some targets logs a ``masking
    truncate`` warning.
    """
    instances: list[MaskedInstance] = []
    for doc in corpus:
        identifiers = doc.groundable_identifiers()
        if len(identifiers) < 2:
            log.info("masking skip pmid=%s reason=fewer-than-2-identifiers", doc.pmid)
            continue
        rng = _document_rng(epoch_seed, doc.pmid)
        selected = _draw_selection(identifiers, cfg.threshold, rng)
        tok = tokenizer.tokenize_document(doc, vocab)
        token_ids = list(tok.token_ids)
        targets: list[MaskedTarget] = []
        for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
            hit = sorted(set(m.identifiers) & selected)
            if hit:
                token_ids[lo:hi] = [MASK_ID] * (hi - lo)
                targets.append(
                    MaskedTarget(lo + 1, hi + 1, vocab.identifier_index(hit[0]), vocab.type_index(m.entity_type))
                )
        ids = frame(token_ids, max_len)
        kept = tuple(t for t in targets if t.token_end < len(ids))
        if not kept:  # every selected identifier has a mention, so the frame cut them
            log.warning("masking skip pmid=%s reason=targets-truncated-away", doc.pmid)
            continue
        if len(kept) < len(targets):
            log.warning("masking truncate pmid=%s dropped=%d kept=%d", doc.pmid, len(targets) - len(kept), len(kept))
        instances.append(MaskedInstance(doc.pmid, ids, kept))
    return instances
