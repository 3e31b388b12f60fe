"""Compact transformer encoder with entity-recovery and pair-classification heads.

The encoder is pre-norm multi-head self-attention with learned positional
embeddings.  Pretraining heads predict the identifier and concept type of
each masked mention from its averaged token representations, all
mentions at once; fine-tuning heads are two MLPs over the CLS
representation predicting relation type and novelty, combined by a
weighted two-term cross-entropy loss.

Because the fine-tuning heads read only CLS, ``finetune_forward`` encodes
with ``cls_only``, which computes the final block for the CLS row alone
(see ``encode``); the logits equal those of the full encoding.

``train`` chooses between the two kinds of forward.  With ``train=True``
a forward applies dropout and records the autograd tape through the
parameters; the loss's ``backward()`` consumes that tape, freeing each
activation and intermediate gradient once it is used, so afterwards only
the parameters hold gradients and the loss cannot be walked again.  With
``train=False`` it is an inference forward: the same ops on the same
arrays, but the weights are read as constants, so no tape is recorded
and every intermediate is freed as soon as it is consumed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, parameter
from .masking import MaskedInstance
from .tokenizer import MAX_LEN, PAD_ID, Vocabulary

_PRECISIONS = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 512
    max_len: int = MAX_LEN
    dropout: float = 0.1
    precision: str = "float32"

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_len < 8:
            raise ValueError(f"max_len must be >= 8, got {self.max_len}")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {self.dropout}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_PRECISIONS[self.precision])

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LossWeights:
    """Multi-task weights: total = lambda_rel * CE_rel + lambda_nov * CE_nov."""

    lambda_rel: float = 1.0
    lambda_nov: float = 2.0

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in (self.lambda_rel, self.lambda_nov)):  # NaN fails too
            raise ValueError(f"loss weights must be finite and non-negative, got {self}")
        if self.lambda_rel == 0 and self.lambda_nov == 0:
            raise ValueError("at least one loss weight must be positive")


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ag.add(ag.matmul(x, w), b)


class RelationModel:
    """Encoder plus all four heads, sized by the ``vocab`` it keeps, with parameters in one named dict."""

    def __init__(self, cfg: EncoderConfig, vocab: Vocabulary, rng: np.random.Generator):
        self.cfg = cfg
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        self._init_params(rng)

    def _init_params(self, rng: np.random.Generator) -> None:
        d, f = self.cfg.d_model, self.cfg.ffn_dim
        dt = self.cfg.dtype
        v = self.vocab
        n_id, n_ty, n_rel, n_nov = map(len, (v.identifier_labels, v.type_labels, v.relation_labels, v.novelty_labels))

        def normal(*shape):
            return parameter((rng.normal(0.0, 0.02, shape)).astype(dt))

        def zeros(*shape):
            return parameter(np.zeros(shape, dtype=dt))

        def ones(*shape):
            return parameter(np.ones(shape, dtype=dt))

        p = self.params
        p["emb.token"] = normal(len(v), d)
        p["emb.pos"] = normal(self.cfg.max_len, d)
        for i in range(self.cfg.n_layers):
            pre = f"enc{i}"
            p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"] = ones(d), zeros(d)
            for name in ("wq", "wk", "wv", "wo"):
                p[f"{pre}.attn.{name}"] = normal(d, d)
            for name in ("bq", "bk", "bv", "bo"):
                p[f"{pre}.attn.{name}"] = zeros(d)
            p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"] = ones(d), zeros(d)
            p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"] = normal(d, f), zeros(f)
            p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"] = normal(f, d), zeros(d)
        p["final.ln.g"], p["final.ln.b"] = ones(d), zeros(d)
        p["head.identifier.w"], p["head.identifier.b"] = normal(d, n_id), zeros(n_id)
        p["head.type.w"], p["head.type.b"] = normal(d, n_ty), zeros(n_ty)
        p["head.relation.w1"], p["head.relation.b1"] = normal(d, d), zeros(d)
        p["head.relation.w2"], p["head.relation.b2"] = normal(d, n_rel), zeros(n_rel)
        p["head.novelty.w1"], p["head.novelty.b1"] = normal(d, d), zeros(d)
        p["head.novelty.w2"], p["head.novelty.b2"] = normal(d, n_nov), zeros(n_nov)

    # --- parameter views -------------------------------------------------

    def pretrain_parameters(self) -> dict[str, Tensor]:
        return {
            k: v
            for k, v in self.params.items()
            if not k.startswith(("head.relation", "head.novelty"))
        }

    def finetune_parameters(self) -> dict[str, Tensor]:
        return {
            k: v
            for k, v in self.params.items()
            if not k.startswith(("head.identifier", "head.type"))
        }

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray], transfer_only: bool = False) -> None:
        """Overwrite parameters from arrays; names and shapes must match.

        With ``transfer_only`` the head parameters are skipped: encoder
        and embedding weights transfer while heads keep their fresh init.
        """
        unknown = sorted(set(arrays) - self.params.keys())
        if unknown:
            raise ValueError(f"checkpoint has parameters the model lacks: {unknown}")
        for name, p in self.params.items():
            if transfer_only and name.startswith("head."):
                continue
            if name not in arrays:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            arr = arrays[name]
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r} shape {arr.shape} != expected {p.data.shape}"
                )
            p.data = arr.astype(self.cfg.dtype, copy=True)

    # --- forward ----------------------------------------------------------

    def _weights(self, train: bool) -> dict[str, Tensor]:
        """The parameters for a training forward, their arrays as constants otherwise."""
        if train:
            return self.params
        return {name: Tensor(p.data) for name, p in self.params.items()}

    @staticmethod
    def _layer_norm(x: Tensor, p: dict[str, Tensor], prefix: str) -> Tensor:
        return ag.add(ag.mul(ag.layer_norm(x), p[f"{prefix}.g"]), p[f"{prefix}.b"])

    def _attention(self, xq: Tensor, xn: Tensor, p: dict[str, Tensor], i: int) -> Tensor:
        """Attention from the m query rows ``xq`` over the n rows of ``xn``: [m, d]."""
        m, n = xq.data.shape[0], xn.data.shape[0]
        h, d = self.cfg.n_heads, self.cfg.d_model
        dh = d // h
        q = _linear(xq, p[f"enc{i}.attn.wq"], p[f"enc{i}.attn.bq"])
        k = _linear(xn, p[f"enc{i}.attn.wk"], p[f"enc{i}.attn.bk"])
        v = _linear(xn, p[f"enc{i}.attn.wv"], p[f"enc{i}.attn.bv"])
        q = ag.transpose(ag.reshape(q, (m, h, dh)), (1, 0, 2))  # [h, m, dh]
        kt = ag.transpose(ag.reshape(k, (n, h, dh)), (1, 2, 0))  # [h, dh, n]
        v = ag.transpose(ag.reshape(v, (n, h, dh)), (1, 0, 2))
        scores = ag.scale(ag.matmul(q, kt), 1.0 / math.sqrt(dh))
        weights = ag.softmax(scores)
        ctx = ag.matmul(weights, v)  # [h, m, dh]
        ctx = ag.reshape(ag.transpose(ctx, (1, 0, 2)), (m, d))
        return _linear(ctx, p[f"enc{i}.attn.wo"], p[f"enc{i}.attn.bo"])

    def encode(
        self,
        token_ids,
        train: bool = False,
        rng: np.random.Generator | None = None,
        cls_only: bool = False,
    ) -> Tensor:
        """Hidden states [len, d_model] of one unpadded sequence.

        Every position attends to every other, so ``PAD_ID`` is rejected:
        the batch size is 1 and nothing pads a sequence.

        With ``cls_only`` the result is the CLS row alone, [1, d_model]:
        the final block takes keys and values from every row but queries
        from row 0 only, and its residual, dropout, FFN and the final
        LayerNorm run on that row.  It equals row 0 of the full result;
        in training mode dropout masks are drawn for that row only.

        With ``train=False`` this is an inference forward: no dropout and
        no tape, so the result has no parents and cannot be differentiated.
        """
        ids = np.asarray(token_ids)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError(f"token_ids must be a non-empty 1-D sequence, got shape {ids.shape}")
        if ids.size > self.cfg.max_len:
            raise ValueError(f"sequence length {ids.size} exceeds max_len {self.cfg.max_len}")
        if (ids == PAD_ID).any():
            raise ValueError("token_ids contain PAD_ID; encode takes unpadded sequences")
        p = self._weights(train)
        drop = self.cfg.dropout if train else 0.0
        if drop > 0 and rng is None:
            raise ValueError("training-mode encode needs an rng for dropout")

        x = ag.add(
            ag.embedding_lookup(p["emb.token"], ids),
            ag.slice_rows(p["emb.pos"], 0, ids.size),
        )
        for i in range(self.cfg.n_layers):
            xn = xq = self._layer_norm(x, p, f"enc{i}.ln1")
            if cls_only and i == self.cfg.n_layers - 1:
                x, xq = ag.slice_rows(x, 0, 1), ag.slice_rows(xn, 0, 1)
            attn = self._attention(xq, xn, p, i)
            if drop > 0:
                attn = ag.dropout(attn, drop, rng)
            x = ag.add(x, attn)
            h = _linear(self._layer_norm(x, p, f"enc{i}.ln2"), p[f"enc{i}.ffn.w1"], p[f"enc{i}.ffn.b1"])
            h = ag.gelu(h)
            h = _linear(h, p[f"enc{i}.ffn.w2"], p[f"enc{i}.ffn.b2"])
            if drop > 0:
                h = ag.dropout(h, drop, rng)
            x = ag.add(x, h)
        return self._layer_norm(x, p, "final.ln")

    @staticmethod
    def _mlp_head(x: Tensor, p: dict[str, Tensor], name: str) -> Tensor:
        h = ag.gelu(_linear(x, p[f"head.{name}.w1"], p[f"head.{name}.b1"]))
        out = _linear(h, p[f"head.{name}.w2"], p[f"head.{name}.b2"])
        return ag.reshape(out, (out.data.shape[-1],))

    def finetune_forward(
        self,
        pair_token_ids,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Relation and novelty logits from the CLS representation.

        With ``train=False`` this is an inference forward with no tape.
        """
        cls = self.encode(pair_token_ids, train=train, rng=rng, cls_only=True)
        p = self._weights(train)
        return self._mlp_head(cls, p, "relation"), self._mlp_head(cls, p, "novelty")

    def pretrain_loss(
        self,
        instance: MaskedInstance,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Mean over masked mentions of identifier CE + type CE.

        Row j of the constant segment-mean matrix ``seg`` [m, n] averages
        target j's token span, so ``seg @ hidden`` holds the m mention
        representations; each head is then one linear layer and one
        row-wise cross-entropy, and the tape length does not depend on m.
        With ``train=False`` this is an inference forward with no tape.
        The instance has already checked its targets on construction.
        """
        targets = instance.masked_targets
        seg = np.zeros((len(targets), len(instance.token_ids)), dtype=self.cfg.dtype)
        for j, t in enumerate(targets):
            seg[j, t.token_start:t.token_end] = 1.0 / (t.token_end - t.token_start)
        p = self._weights(train)
        reprs = ag.matmul(Tensor(seg), self.encode(instance.token_ids, train=train, rng=rng))
        id_logits = _linear(reprs, p["head.identifier.w"], p["head.identifier.b"])
        ty_logits = _linear(reprs, p["head.type.w"], p["head.type.b"])
        return ag.add(
            ag.cross_entropy(id_logits, [t.identifier_index for t in targets]),
            ag.cross_entropy(ty_logits, [t.type_index for t in targets]),
        )


def finetune_loss(
    relation_logits: Tensor,
    novelty_logits: Tensor,
    relation_index: int,
    novelty_index: int,
    weights: LossWeights,
) -> Tensor:
    """Weighted sum of the two task cross-entropies for one pair instance."""
    loss_rel = ag.cross_entropy(relation_logits, relation_index)
    loss_nov = ag.cross_entropy(novelty_logits, novelty_index)
    return ag.add(ag.scale(loss_rel, weights.lambda_rel), ag.scale(loss_nov, weights.lambda_nov))
