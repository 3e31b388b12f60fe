"""Entity-aware masking: sample identifiers, mask all their mention tokens.

Selection is per identifier: each distinct groundable identifier is an
independent Bernoulli(threshold) draw, repaired so that at least one
identifier stays unmasked and at least one is masked.  Masking an
identifier replaces every token of every one of its mentions with the
MASK token and records one (token range, identifier, type) target per
masked mention.

Instances are framed by ``tokenizer.frame``, so target ranges are framed
offsets (document token ``i`` is token ``i + 1``); a target cut is dropped.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document
from .tokenizer import (
    MASK_ID,
    MAX_LEN,
    TokenizedDocument,
    Vocabulary,
    frame,
    tokenize_document,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MaskingConfig:
    threshold: float = 0.2
    seed: int = 0

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


def select_masked_identifiers(
    doc: Document, rng: np.random.Generator, cfg: MaskingConfig
) -> set[str]:
    """Draw the set of identifiers to mask for one pretraining instance.

    An all-selected draw unmasks one identifier at random and an empty
    draw masks one, so at least one is masked and at least one is not.
    """
    identifiers = doc.groundable_identifiers()
    if len(identifiers) < 2:
        raise ValueError(
            f"document {doc.pmid} has {len(identifiers)} groundable identifiers; need >= 2"
        )
    selected = [i for i in identifiers if rng.random() < cfg.threshold]
    if len(selected) == len(identifiers):
        selected.pop(int(rng.integers(len(selected))))
    elif not selected:
        selected.append(identifiers[int(rng.integers(len(identifiers)))])
    return set(selected)


def apply_entity_mask(
    tok: TokenizedDocument,
    doc: Document,
    selected: set[str],
    vocab: Vocabulary,
    max_len: int,
) -> MaskedInstance:
    """Mask every mention of every selected identifier, emit per-mention targets, frame.

    A composite mention (several identifiers) has one target: the
    lexicographically first of its selected identifiers (``hit[0]``).
    Targets the frame cuts are dropped and, unless none is left (the
    caller's to skip), counted in a ``masking truncate`` warning.
    """
    token_ids = list(tok.token_ids)
    targets: list[MaskedTarget] = []
    masked: set[str] = set()
    for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
        hit = sorted(set(m.identifiers) & selected)
        if not hit:
            continue
        masked.update(hit)
        token_ids[lo:hi] = [MASK_ID] * (hi - lo)
        targets.append(
            MaskedTarget(lo + 1, hi + 1, vocab.identifier_index(hit[0]), vocab.type_index(m.entity_type))
        )
    missing = selected - masked
    if missing:
        raise ValueError(f"selected identifiers with no mention in {doc.pmid}: {sorted(missing)}")
    ids = frame(token_ids, max_len)
    kept = [t for t in targets if t.token_end < len(ids)]
    if kept and len(kept) < len(targets):
        log.warning("masking truncate pmid=%s dropped=%d kept=%d", doc.pmid, len(targets) - len(kept), len(kept))
    return MaskedInstance(doc.pmid, ids, tuple(kept))


def _document_rng(base_seed: int, epoch_seed: int, pmid: str) -> np.random.Generator:
    pmid_hash = int.from_bytes(hashlib.sha256(pmid.encode("utf-8")).digest()[:8], "little")
    seq = np.random.SeedSequence([base_seed, epoch_seed, pmid_hash])
    return np.random.Generator(np.random.PCG64(seq))


def build_pretraining_instances(
    corpus: Sequence[Document],
    vocab: Vocabulary,
    cfg: MaskingConfig,
    epoch_seed: int,
    max_len: int = MAX_LEN,
) -> list[MaskedInstance]:
    """One framed masked instance per eligible document, fully seed-determined."""
    instances: list[MaskedInstance] = []
    for doc in corpus:
        if len(doc.groundable_identifiers()) < 2:
            log.info("masking skip pmid=%s reason=fewer-than-2-identifiers", doc.pmid)
            continue
        rng = _document_rng(cfg.seed, epoch_seed, doc.pmid)
        selected = select_masked_identifiers(doc, rng, cfg)
        inst = apply_entity_mask(tokenize_document(doc, vocab), doc, selected, vocab, max_len)
        if not inst.masked_targets:  # every selected identifier has a mention, so the frame cut them
            log.warning("masking skip pmid=%s reason=targets-truncated-away", doc.pmid)
            continue
        instances.append(inst)
    return instances

