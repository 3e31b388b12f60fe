"""Compact transformer encoder with entity-recovery and pair-classification heads.

The encoder is pre-norm multi-head self-attention with learned positional
embeddings.  Pretraining heads predict the identifier and concept type of
each masked mention from its averaged token representations, all
mentions at once; fine-tuning heads are two MLPs over the CLS
representation predicting relation type and novelty, combined by a
weighted two-term cross-entropy loss.

The heads read only a few rows of the encoding: the pair MLPs the CLS
row, the pretraining heads the rows of the masked mentions.  ``encode``
takes those rows and runs the last block at them alone, with its keys
and values left unprojected (see ``encode`` for the cost condition); the
results equal the same rows of the full encoding up to rounding.

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
        for name in ("d_model", "n_layers", "n_heads", "ffn_dim", "max_len"):
            if type(getattr(self, name)) is not int:  # refuses bool and numpy integers as well
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
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
            # No key bias: it adds q.b_k to every score of a query row, and
            # softmax is shift-invariant, so it could change no output.
            for name in ("bq", "bv", "bo"):
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
        """All but the fine-tuning heads, so pretraining leaves them at their initial weights.  A head added
        for fine-tuning must join this exclusion, or ``adam_step`` raises: that head has no gradient."""
        return {
            k: v
            for k, v in self.params.items()
            if not k.startswith(("head.relation", "head.novelty"))
        }

    def finetune_parameters(self) -> dict[str, Tensor]:
        """All but the pretraining heads, so fine-tuning leaves them as pretraining did.  A head added
        for pretraining must join this exclusion, or ``adam_step`` raises: that head has no gradient."""
        return {
            k: v
            for k, v in self.params.items()
            if not k.startswith(("head.identifier", "head.type"))
        }

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray], transfer_only: bool = False) -> None:
        """Copy arrays into the parameters' own arrays, cast to their dtype; names and shapes must match.

        Every name and shape is checked before anything is written, so a
        refused load writes nothing.  With ``transfer_only`` the head
        parameters are skipped: encoder and embedding weights load while
        heads keep their values.  A run needs no such reload (see the views).
        """
        unknown = sorted(set(arrays) - self.params.keys())
        if unknown:
            raise ValueError(f"checkpoint has parameters the model lacks: {unknown}")
        loaded = {name: p for name, p in self.params.items() if not (transfer_only and name.startswith("head."))}
        for name, p in loaded.items():
            if name not in arrays:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r} shape {arrays[name].shape} != expected {p.data.shape}"
                )
        for name, p in loaded.items():
            p.data[...] = arrays[name]

    # --- forward ----------------------------------------------------------

    def _weights(self, train: bool) -> dict[str, Tensor]:
        """The parameters for a training forward, their arrays as constants otherwise."""
        if train:
            return self.params
        return {name: Tensor(p.data) for name, p in self.params.items()}

    @staticmethod
    def _layer_norm(x: Tensor, p: dict[str, Tensor], prefix: str) -> Tensor:
        return ag.layer_norm(x, p[f"{prefix}.g"], p[f"{prefix}.b"])

    def _merge_heads(self, ctx: Tensor, p: dict[str, Tensor], i: int) -> Tensor:
        """The output projection of the per-head contexts ``ctx`` [h, m, dh]: [m, d]."""
        m = ctx.data.shape[1]
        ctx = ag.reshape(ag.transpose(ctx, (1, 0, 2)), (m, self.cfg.d_model))
        return _linear(ctx, p[f"enc{i}.attn.wo"], p[f"enc{i}.attn.bo"])

    def _self_attention(self, xn: Tensor, p: dict[str, Tensor], i: int) -> Tensor:
        """Attention from every row of ``xn`` [n, d] over all of them: [n, d]."""
        n = xn.data.shape[0]
        h, d = self.cfg.n_heads, self.cfg.d_model
        dh = d // h
        q = _linear(xn, p[f"enc{i}.attn.wq"], p[f"enc{i}.attn.bq"])
        k = ag.matmul(xn, p[f"enc{i}.attn.wk"])
        v = _linear(xn, p[f"enc{i}.attn.wv"], p[f"enc{i}.attn.bv"])
        q = ag.transpose(ag.reshape(q, (n, h, dh)), (1, 0, 2))  # [h, n, dh]
        kt = ag.transpose(ag.reshape(k, (n, h, dh)), (1, 2, 0))  # [h, dh, n]
        v = ag.transpose(ag.reshape(v, (n, h, dh)), (1, 0, 2))
        weights = ag.softmax(ag.matmul(q, kt), 1.0 / math.sqrt(dh))
        return self._merge_heads(ag.matmul(weights, v), p, i)

    def _attention_at(self, xq: Tensor, xn: Tensor, p: dict[str, Tensor], i: int) -> Tensor:
        """Attention from the r query rows ``xq`` over the n rows of ``xn``: [r, d].

        Keys and values are not projected.  Per head, with W_k,h the head's
        d x dh block of the key weights, the scores q_h k_h^T are
        (q_h W_k,h^T) xn^T, and, since each row of the weights w_h sums to
        1, the context w_h v_h is (w_h xn) W_v,h + b_v,h.
        """
        r, n = xq.data.shape[0], xn.data.shape[0]
        h, d = self.cfg.n_heads, self.cfg.d_model
        dh = d // h
        q = _linear(xq, p[f"enc{i}.attn.wq"], p[f"enc{i}.attn.bq"])
        q = ag.transpose(ag.reshape(q, (r, h, dh)), (1, 0, 2))  # [h, r, dh]
        wk = ag.transpose(ag.reshape(p[f"enc{i}.attn.wk"], (d, h, dh)), (1, 2, 0))  # [h, dh, d]
        qk = ag.reshape(ag.matmul(q, wk), (h * r, d))
        scores = ag.reshape(ag.matmul(qk, ag.transpose(xn, (1, 0))), (h, r, n))
        weights = ag.softmax(scores, 1.0 / math.sqrt(dh))
        wx = ag.reshape(ag.matmul(ag.reshape(weights, (h * r, n)), xn), (h, r, d))
        wv = ag.transpose(ag.reshape(p[f"enc{i}.attn.wv"], (d, h, dh)), (1, 0, 2))  # [h, d, dh]
        ctx = ag.add(ag.matmul(wx, wv), ag.reshape(p[f"enc{i}.attn.bv"], (h, 1, dh)))
        return self._merge_heads(ctx, p, i)

    def encode(
        self,
        token_ids,
        rows,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Hidden states [len(rows), d_model] at the positions ``rows`` of one unpadded sequence.

        Every position attends to every other, so ``PAD_ID`` is rejected:
        the batch size is 1 and nothing pads a sequence.

        Every block but the last runs on all n positions.  The last block
        takes its residual and query rows at ``rows`` only, so its
        attention output, dropout, FFN and the final LayerNorm run on r =
        len(rows) rows, and in training mode dropout masks are drawn for
        those rows only.  Row j of the result equals row ``rows[j]`` of the
        full encoding up to rounding.

        The last block's keys and values come from all n rows of its
        LayerNorm without being projected (``_attention_at``).  That costs
        2d*r*(d + h*n) multiply-adds against 2d*n*(d + r) for projecting
        them, so it is the cheaper form while r*((h-1)*n + d) < n*d: up to
        r = 27 at n = 80 and r = 37 at n = 300 in the default config.  A
        pair reads r = 1 (CLS).  A pretraining instance reads its masked
        spans: on the benchmark's inputs of seeds 1-3, r = 4.6 on average
        (at most 16) on abstract-length documents of about 76 tokens and
        r = 16.5 (at most 37) on documents of about 250 tokens, each below
        its own break-even.

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
            xn = self._layer_norm(x, p, f"enc{i}.ln1")
            if i < self.cfg.n_layers - 1:
                attn = self._self_attention(xn, p, i)
            else:
                x = ag.embedding_lookup(x, rows)
                attn = self._attention_at(ag.embedding_lookup(xn, rows), xn, p, i)
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
        cls = self.encode(pair_token_ids, [0], train=train, rng=rng)
        p = self._weights(train)
        return self._mlp_head(cls, p, "relation"), self._mlp_head(cls, p, "novelty")

    def pretrain_loss(
        self,
        instance: MaskedInstance,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Mean over masked mentions of identifier CE + type CE.

        Row j of the constant segment-mean matrix ``seg`` [m, r] averages
        target j's token span over the r rows that the spans cover, the
        only rows ``encode`` is asked for, so ``seg @ hidden`` holds the m
        mention representations; each head is then one linear layer and one
        row-wise cross-entropy, and the tape length does not depend on m.
        With ``train=False`` this is an inference forward with no tape.
        The instance has already checked its targets on construction.
        """
        targets = instance.masked_targets
        seg = np.zeros((len(targets), len(instance.token_ids)), dtype=self.cfg.dtype)
        for j, t in enumerate(targets):
            seg[j, t.token_start:t.token_end] = 1.0 / (t.token_end - t.token_start)
        rows = np.flatnonzero(seg.any(axis=0))  # the sorted union of the spans
        p = self._weights(train)
        hidden = self.encode(instance.token_ids, rows, train=train, rng=rng)
        reprs = ag.matmul(Tensor(seg[:, rows]), hidden)
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
