"""Per-layer timing and counts for the traced benchmark run.

The tracer wraps public functions of the entrex modules in place, by
module or class attribute, and restores them afterwards; ``src/`` is not
edited.  ``model.py`` calls every op as ``ag.<op>``, so wrapping the
attributes of ``entrex.autograd`` catches every op call.  A wrapped call
records its self time: its duration minus the time of wrapped calls made
inside it, so nested layers (``finetune_forward`` -> ``encode`` ->
``matmul``) are not counted twice.

Backward closures run inside ``Tensor.backward`` and are attributed to
it as a whole; per-op backward time needs a hook inside the library.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

from entrex import autograd, corpus, evaluation, masking, model, optim, tokenizer

# Every autograd op the workloads call, directly or from model.py.
AUTOGRAD_OPS = (
    "add", "mul", "scale", "matmul", "embedding_lookup", "softmax", "layer_norm",
    "gelu", "mean", "dropout", "reshape", "transpose", "slice_rows",
    "cross_entropy", "add_n",
)

# Traced span name -> (owner, attribute) that is wrapped.
SPANS = {
    **{f"autograd.{op}": (autograd, op) for op in AUTOGRAD_OPS},
    "autograd.Tensor.backward": (autograd.Tensor, "backward"),
    "optim.adam_step": (optim, "adam_step"),
    "model.encode": (model.RelationModel, "encode"),
    "model.pretrain_loss": (model.RelationModel, "pretrain_loss"),
    "model.finetune_forward": (model.RelationModel, "finetune_forward"),
    "model.finetune_loss": (model, "finetune_loss"),
    "model.load_state": (model.RelationModel, "load_state"),
    "tokenizer.insert_pair_tags": (tokenizer, "insert_pair_tags"),
    "tokenizer.tokenize_document": (tokenizer, "tokenize_document"),
    "tokenizer.build_vocab": (tokenizer, "build_vocab"),
    "masking.build_pretraining_instances": (masking, "build_pretraining_instances"),
    "corpus.parse_pubtator": (corpus, "parse_pubtator"),
    "corpus.candidate_pairs": (corpus, "candidate_pairs"),
    "corpus.write_pubtator": (corpus, "write_pubtator"),
    "evaluation.evaluate": (evaluation, "evaluate"),
}

# Further (owner, attribute) pairs wrapped under a span: masking.py imports
# tokenize_document by name, so its calls bypass the tokenizer attribute.
ALSO_WRAPPED = {
    "tokenizer.tokenize_document": [(masking, "tokenize_document")],
}

# Counters taken from a wrapped call's arguments and result.
COUNTERS = (
    "model.encode.tokens",
    "tokenizer.insert_pair_tags.truncated",
    "tokenizer.insert_pair_tags.untagged",
    "tokenizer.build_vocab.tokens",
    "masking.build_pretraining_instances.instances",
    "masking.build_pretraining_instances.targets",
    "masking.build_pretraining_instances.skipped",
    "corpus.parse_pubtator.docs",
    "corpus.candidate_pairs.pairs",
)


def _count_encode(counts, args, result):
    counts["model.encode.tokens"] += len(args["token_ids"])


def _count_pair_tags(counts, args, result):
    doc, vocab = args["doc"], args["vocab"]
    src, tgt = args["src_id"], args["tgt_id"]
    tagged = sum(1 for m in doc.mentions if src in m.identifiers or tgt in m.identifiers)
    # CLS + tokens + one open and one close tag per tagged mention + SEP
    if len(args["tok"].token_ids) + 2 + 2 * tagged > args["max_len"]:
        counts["tokenizer.insert_pair_tags.truncated"] += 1
    out = set(result)
    for role in ("SRC", "TGT"):
        if out.isdisjoint(vocab.tag_id(role, t) for t in vocab.type_labels):
            counts["tokenizer.insert_pair_tags.untagged"] += 1
            break


def _count_vocab(counts, args, result):
    counts["tokenizer.build_vocab.tokens"] += len(result)


def _count_instances(counts, args, result):
    prefix = "masking.build_pretraining_instances"
    counts[f"{prefix}.instances"] += len(result)
    counts[f"{prefix}.targets"] += sum(len(i.masked_targets) for i in result)
    counts[f"{prefix}.skipped"] += len(args["corpus"]) - len(result)


def _count_parse(counts, args, result):
    counts["corpus.parse_pubtator.docs"] += len(result)


def _count_pairs(counts, args, result):
    counts["corpus.candidate_pairs.pairs"] += len(result)


_COUNT_HOOKS = {
    "model.encode": _count_encode,
    "tokenizer.insert_pair_tags": _count_pair_tags,
    "tokenizer.build_vocab": _count_vocab,
    "masking.build_pretraining_instances": _count_instances,
    "corpus.parse_pubtator": _count_parse,
    "corpus.candidate_pairs": _count_pairs,
}


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in output order."""
    names = []
    for span in SPANS:
        names += [f"{span}.s", f"{span}.calls"]
    return names + list(COUNTERS) + ["autograd.ops_per_step"]


class Tracer:
    """Wraps the spans on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []
        self._saved_activations: dict = {}

    def install(self) -> None:
        # A span whose function no longer exists stays at zero.
        for name, target in SPANS.items():
            for owner, attr in [target, *ALSO_WRAPPED.get(name, ())]:
                original = getattr(owner, attr, None)
                if original is not None:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
        # model.py looks activations up in a dict filled at import time, so
        # those entries still point at the unwrapped ops.
        activations = getattr(model, "_ACTIVATIONS", {})
        self._saved_activations = dict(activations)
        for key, fn in activations.items():
            activations[key] = getattr(autograd, fn.__name__, fn)

    def uninstall(self) -> None:
        getattr(model, "_ACTIVATIONS", {}).update(self._saved_activations)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, original):
        hook = _COUNT_HOOKS.get(name)
        if hook is not None:
            parameters = inspect.signature(original).parameters
            names = list(parameters)
            defaults = {k: p.default for k, p in parameters.items() if p.default is not p.empty}
        tracer = self

        def traced(*args, **kwargs):
            tracer._open.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.self_seconds[name] += elapsed - tracer._open.pop()
                tracer.calls[name] += 1
                if tracer._open:
                    tracer._open[-1] += elapsed
            if hook is not None:
                hook(tracer.counts, {**defaults, **dict(zip(names, args)), **kwargs}, result)
            return result

        traced.__wrapped__ = original
        return traced

    def metrics(self, model_ops: int) -> dict[str, float]:
        """Self seconds, call counts and counters; zero for spans never entered."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.s"] = self.self_seconds.get(span, 0.0)
            out[f"{span}.calls"] = self.calls.get(span, 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        op_calls = sum(self.calls.get(f"autograd.{op}", 0) for op in AUTOGRAD_OPS)
        out["autograd.ops_per_step"] = op_calls / model_ops if model_ops else 0.0
        return out
