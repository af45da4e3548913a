"""Spans around calls into the package's public functions, kept in memory.

The tracer patches names from outside the package: a function is replaced in
every ``ecgdenoise`` module that bound it (``from .x import f`` makes a second
binding), a method on its class. Backward time per layer kind comes from
wrapping the backward closure each op hands to ``tensor.apply_op`` while a
layer's forward span is open; the closure then runs under Tape.backward with
its own span. A name that the package no longer has is listed as absent and the
metrics that need it are left out; nothing else fails.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "ecgdenoise"

# Layer kinds whose forward and backward time is reported per training step.
LAYER_KINDS = ("conv1d", "batchnorm", "maxpool1d", "conv_transpose1d",
               "mhsa", "feedforward", "layernorm")


def _conv1d_attrs(x, weight, bias, stride=1, padding=0):
    batch, c_in, length = x.shape
    c_out, _, kernel = weight.shape
    out_len = (length + 2 * padding - kernel) // stride + 1
    # multiply-adds counted as two operations; computed from shapes, not counted
    return {"flop": 2 * batch * c_out * c_in * kernel * out_len}


def _forward_attrs(self, x, training=False):
    return {"segs": x.shape[0],
            "name": "model.forward_train" if training else "model.forward_eval"}


def _backward_attrs(self, root):
    return {"nodes": len(self)}


# (module, attribute, label, attribute function); the label names the span
# and, when the attribute is missing, the absent name. The model's forward is
# split into model.forward_train and model.forward_eval by its training flag.
TARGETS = (
    ("layers", "conv1d", "layers.conv1d.fwd", _conv1d_attrs),
    ("layers", "conv_transpose1d", "layers.conv_transpose1d.fwd", None),
    ("layers", "maxpool1d", "layers.maxpool1d.fwd", None),
    ("layers", "BatchNorm1d.forward", "layers.batchnorm.fwd", None),
    ("layers", "LayerNorm.forward", "layers.layernorm.fwd", None),
    ("layers", "MultiHeadSelfAttention.forward", "layers.mhsa.fwd", None),
    ("layers", "FeedForward.forward", "layers.feedforward.fwd", None),
    ("model", "TransformerUNet1D.forward", "model.forward", _forward_attrs),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("optim", "AdamW.step", "optim.step", None),
    ("loss", "total_loss", "loss.total_loss", None),
    ("training", "output_gradient", "training.output_gradient", None),
    ("training", "train_step", "training.train_step", None),
    ("training", "validation_loss", "training.validation_loss", None),
    ("training", "train_model", "training.train_model", None),
    ("data", "build_dataset", "data.build_dataset", None),
    ("data", "load_split", "data.load_split", None),
    ("data", "load_signal_file", "data.load_signal_file", None),
    ("data", "save_signal_file", "data.save_signal_file", None),
    ("tensor", "Tape.backward", "tensor.backward", _backward_attrs),
)

class Tracer:
    """In-memory spans: name, parent index, start and end (perf_counter s)."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name, attrs=None):
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        if attrs:
            span.update(attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span of the given name (for the benchmark's own calls)."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _layer_kind(self):
        for index in reversed(self._stack):
            name = self.spans[index]["name"]
            if name.startswith("layers.") and name.endswith(".fwd"):
                return name[:-4]
        return None

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, label, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(label, attrs_fn(*args, **kwargs) if attrs_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_apply_op(self, apply_op):
        tracer = self

        @functools.wraps(apply_op)
        def wrapper(out_data, inputs, backward_fn):
            kind = tracer._layer_kind()
            if kind is not None:
                inner = backward_fn

                def backward_fn(g, _inner=inner, _name=kind + ".bwd"):
                    span = tracer.open(_name)
                    try:
                        _inner(g)
                    finally:
                        tracer.close(span)

            return apply_op(out_data, inputs, backward_fn)

        return wrapper

    def _replace_everywhere(self, original, replacement):
        """Rebind `original` to `replacement` in every loaded package module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Patch every target that exists; record the ones that do not."""
        for mod_name, path, label, attrs_fn in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self._wrap(original, label, attrs_fn)
            if isinstance(owner, type):
                self._patches.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        try:
            apply_op = importlib.import_module(f"{PACKAGE}.tensor").apply_op
        except (ImportError, AttributeError):
            self.absent.append("tensor.apply_op")
        else:
            self._replace_everywhere(apply_op, self._wrap_apply_op(apply_op))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def to_json(self):
        return {"absent": self.absent, "spans": self.spans}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _enclosing(spans, names):
    """For each span, the index of its nearest enclosing span named in `names`."""
    out = []
    for i, span in enumerate(spans):
        if span["name"] in names:
            out.append(i)
        else:
            out.append(out[span["parent"]] if span["parent"] is not None else None)
    return out


def _dur(span):
    return span["end"] - span["start"]


def per_layer(spans, absent):
    """Per-layer metrics as {name: (value, unit)}; see perfbench/README.md."""
    in_step = _enclosing(spans, {"training.train_step"})
    in_train = _enclosing(spans, {"training.train_model"})
    in_denoise = _enclosing(spans, {"cli.denoise"})
    in_eval = _enclosing(spans, {"metrics.evaluate"})

    step_sum = defaultdict(float)      # span name -> seconds inside train steps
    total = defaultdict(float)         # span name -> seconds anywhere
    calls = defaultdict(int)
    within = defaultdict(lambda: defaultdict(float))  # outer name -> inner name -> seconds
    steps = nodes = segs_eval = 0
    conv_flop = 0
    for i, span in enumerate(spans):
        name, d = span["name"], _dur(span)
        total[name] += d
        calls[name] += 1
        if name == "model.forward_eval":
            segs_eval += span["segs"]
        if in_step[i] is not None:
            step_sum[name] += d
            if name == "training.train_step":
                steps += 1
            elif name == "tensor.backward":
                nodes += span["nodes"]
            elif name == "layers.conv1d.fwd":
                conv_flop += 3 * span["flop"]  # forward, plus grad input and grad weight
        # the inner names summed below never nest in one another
        for outer, index in (("training.train_model", in_train[i]),
                             ("cli.denoise", in_denoise[i]), ("metrics.evaluate", in_eval[i])):
            if index is not None and index != i:
                within[outer][name] += d

    def per_step(name):
        return 1e3 * step_sum[name] / steps

    def per_call(name, scale=1e3):
        return scale * total[name] / calls[name]

    metrics = {}  # name -> (value, unit, span names it needs)
    if steps:
        layer_bwd = 0.0
        for kind in LAYER_KINDS:
            fwd, bwd = f"layers.{kind}.fwd", f"layers.{kind}.bwd"
            metrics[f"layers.{kind}.fwd_ms"] = (per_step(fwd), "ms/step", [fwd])
            metrics[f"layers.{kind}.bwd_ms"] = (per_step(bwd), "ms/step", [fwd, "tensor.apply_op"])
            layer_bwd += step_sum[bwd]
        conv_time = step_sum["layers.conv1d.fwd"] + step_sum["layers.conv1d.bwd"]
        metrics["layers.conv1d.gflop_per_s"] = (
            conv_flop / conv_time / 1e9 if conv_time else 0.0, "GFLOP/s",
            ["layers.conv1d.fwd", "tensor.apply_op"])
        metrics["tensor.backward_ms"] = (per_step("tensor.backward"), "ms/step", ["tensor.backward"])
        metrics["tensor.backward_self_ms"] = (
            1e3 * (step_sum["tensor.backward"] - layer_bwd) / steps, "ms/step",
            ["tensor.backward", "tensor.apply_op"] + [f"layers.{k}.fwd" for k in LAYER_KINDS])
        metrics["tensor.tape_nodes"] = (nodes / steps, "nodes/step", ["tensor.backward"])
        metrics["model.forward_train_ms"] = (per_step("model.forward_train"), "ms/step", ["model.forward"])
        metrics["optim.step_ms"] = (per_step("optim.step"), "ms/step", ["optim.step"])
        metrics["loss.total_loss_ms"] = (per_step("loss.total_loss"), "ms/step", ["loss.total_loss"])
        metrics["training.output_gradient_ms"] = (
            per_step("training.output_gradient"), "ms/step", ["training.output_gradient"])
    if calls["training.train_model"]:
        runs = calls["training.train_model"]
        inner = within["training.train_model"]
        metrics["training.validation_loss_s"] = (
            inner["training.validation_loss"] / runs, "s/call", ["training.validation_loss"])
        metrics["training.other_s"] = (
            (total["training.train_model"] - inner["training.train_step"]
             - inner["training.validation_loss"] - inner["model.save_checkpoint"]) / runs, "s/call",
            ["training.train_model", "training.train_step", "training.validation_loss",
             "model.save_checkpoint"])
    if segs_eval:
        metrics["model.forward_eval_ms"] = (
            1e3 * total["model.forward_eval"] / segs_eval, "ms/seg", ["model.forward"])
    for name, metric, scale, unit in (
            ("model.save_checkpoint", "model.save_checkpoint_ms", 1e3, "ms/call"),
            ("model.load_checkpoint", "model.load_checkpoint_ms", 1e3, "ms/call"),
            ("data.build_dataset", "data.build_dataset_s", 1.0, "s/call"),
            ("data.load_split", "data.load_split_s", 1.0, "s/call"),
            ("data.load_signal_file", "data.load_signal_file_ms", 1e3, "ms/call"),
            ("data.save_signal_file", "data.save_signal_file_ms", 1e3, "ms/call")):
        if calls[name]:
            metrics[metric] = (per_call(name, scale), unit, [name])
    if calls["cli.denoise"]:
        inner = within["cli.denoise"]
        parts = ("model.load_checkpoint", "data.load_signal_file", "data.save_signal_file",
                 "model.forward_eval")
        metrics["cli.denoise_self_ms"] = (
            1e3 * (total["cli.denoise"] - sum(inner[p] for p in parts)) / calls["cli.denoise"],
            "ms/call", ["model.load_checkpoint", "data.load_signal_file", "data.save_signal_file",
                        "model.forward"])
    if calls["metrics.evaluate"]:
        inner = within["metrics.evaluate"]
        metrics["metrics.evaluate_self_ms"] = (
            1e3 * (total["metrics.evaluate"] - inner["model.forward_eval"]) / calls["metrics.evaluate"],
            "ms/call", ["model.forward"])
    missing = set(absent)
    return {name: (value, unit) for name, (value, unit, needs) in metrics.items()
            if not missing.intersection(needs)}
