"""Attentive mixture of experts over disjoint feature groups.

Each expert is a small MLP that reads exactly one feature group and emits a
hidden state h_i plus a contribution c_i. Per-expert gating networks attend
to the combined hidden state of all experts and score a projected
representation against a learned context vector; the softmax of those
scores is the attention vector, which both weights the contributions into
the prediction and doubles as the per-sample feature-importance read-out.

A Granger probe stack of p+1 auxiliary predictors provides the error
estimates the Granger-causal objective is built from: slot 0 reads every
expert's state, and slot i+1 everything except expert i's.

Experts, heads, gates and probes are each one stack of layers over a
leading axis (`diffcore.linear`), so a forward pass costs the same number
of ops whatever the number of experts.
"""

from __future__ import annotations

import base64
import copy
import csv
import hashlib
import json
import math
import numbers
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .diffcore import (OPTIMIZERS, DenseLayer, Tensor, concat, glorot, map_dot, softmax,
                       weighted_sum)

MODEL_FORMAT = 4  # model.json: base64 `<f8` values, one probe stack; the one format that loads

TASKS = ("regression", "classification")


class ConfigError(ValueError):
    """Raised for invalid architecture or run configuration."""


def _type_name(like) -> str:
    return f"list[{_type_name(like[0])}]" if isinstance(like, list) else type(like).__name__


_NUMBER = {int: numbers.Integral, float: numbers.Real}


def _parse(value, like):
    """`value` as the plain value of the JSON type of `like` it stands for: a
    bool; an int, from any integral number but a bool; a finite float, from
    any real number but a bool; a str; or a list whose items parse against
    like[0]. Raises TypeError for a value of another type and ValueError for
    a float that is not finite."""
    kind = type(like)
    if kind is list:
        if not isinstance(value, list):
            raise TypeError
        return [_parse(v, like[0]) for v in value]
    if type(value) is not kind:  # the slow ABC checks only for a value not yet plain
        if isinstance(value, bool) or not isinstance(value, _NUMBER.get(kind, kind)):
            raise TypeError
        try:
            value = kind(value)
        except OverflowError:  # a number beyond float range
            raise ValueError from None
    if kind is float and not math.isfinite(value):
        raise ValueError
    return value


def setting(default, rule=None, text: str = "", like=None):
    """A config field with `default` and its single-field `rule`, described by
    `text` (shown by `ame-lab --help` and in refusals). The rule returns true
    when a value of the field's type is fine. A field that defaults to None may
    be None or of the type of `like`; any other field has the type of its
    default."""
    meta = {"like": default if like is None else like, "rule": rule, "text": text}
    if isinstance(default, list):
        return field(default_factory=lambda: copy.deepcopy(default), metadata=meta)
    return field(default=default, metadata=meta)


def choice(default, options: tuple):
    """A `setting` whose value must be one of `options`."""
    text = ", ".join(map(repr, options[:-1])) + f" or {options[-1]!r}"
    return setting(default, lambda v: v in options, text, like=options[0])


def at_least(default, low):
    """A `setting` whose value must be >= `low`."""
    return setting(default, lambda v: v >= low, f">= {low}")


def _block(f):
    """The config class of a nested block field (its default factory), else None."""
    return f.default_factory if isinstance(f.default_factory, type) else None


class Config:
    """Base of the config dataclasses. A field is a `setting`, a plain field
    (typed by its default, no rule), or a nested config block whose default
    factory is its class, of which it must hold an instance. Construction
    parses each field to its plain JSON value (`_parse`: numpy scalars,
    fractions and ints for floats included), stores it back, checks its
    rule, then runs `validate()`; `check()` does so again for a config
    changed after it was built."""

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            block = _block(f)
            if block is not None and not isinstance(value, block):
                raise ConfigError(f"{f.name} must be {block.__name__}, got {value!r}")
            if block is not None or (value is None and f.default is None):
                continue  # a block checked itself when it was built
            like, rule = f.metadata.get("like", f.default), f.metadata.get("rule")
            try:
                value = _parse(value, like)
            except TypeError:
                raise ConfigError(f"{f.name} must be {_type_name(like)}, got {value!r}") from None
            except ValueError:
                raise ConfigError(f"{f.name} must be finite, got {value!r}") from None
            setattr(self, f.name, value)
            if not (rule is None or rule(value)):
                raise ConfigError(f"{f.name} must be {f.metadata['text']}, got {value!r}")
        self.validate()

    def validate(self) -> None:
        """The rules that span fields; none unless a subclass has some."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw):
        """The config from a JSON object, refusing unknown fields; a nested
        block parses through its own class."""
        if not isinstance(raw, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {raw!r}")
        blocks = {f.name: _block(f) for f in fields(cls)}
        unknown = sorted(set(raw) - set(blocks))
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} fields: {unknown}")
        return cls(**{name: value if blocks[name] is None else blocks[name].from_dict(value)
                      for name, value in raw.items()})


def _check_partition(groups) -> None:
    """Refuse unless `groups` are non-empty disjoint groups covering 0..n-1,
    naming at most the first few indices left uncovered."""
    if not groups:
        raise ConfigError("feature_partition must contain at least one group")
    if not all(groups):
        raise ConfigError("feature_partition groups must be non-empty")
    counts = Counter(i for group in groups for i in group)
    if min(counts) < 0:
        raise ConfigError(f"feature_partition holds negative index {min(counts)}")
    overlaps = sorted(i for i, n in counts.items() if n > 1)
    if overlaps:
        raise ConfigError(f"feature_partition groups overlap on indices {overlaps}")
    n_missing = max(counts) + 1 - len(counts)
    if n_missing:
        first = [i for i in range(len(counts) + 5) if i not in counts][:min(n_missing, 5)]
        raise ConfigError(f"feature_partition misses {n_missing} of indices 0..{max(counts)}, "
                          f"first {first}")


@dataclass
class AmeConfig(Config):
    """Full architecture plus training description of one model.

    feature_partition uses 0-based feature indices; the groups must be
    pairwise disjoint and cover 0..n_features-1 exactly. expert_hidden and
    aux_hidden are hidden-layer widths shared by all experts / auxiliary
    predictors.
    """

    feature_partition: list[list[int]] = setting(  # checked by validate()
        [[0]], text="non-empty disjoint groups covering indices 0..n-1")
    expert_hidden: list[int] = setting([8], lambda v: v and min(v) >= 1, "one or more widths >= 1")
    gate_hidden: int = at_least(8, 1)
    aux_hidden: list[int] = setting([8], lambda v: v and min(v) >= 1, "one or more widths >= 1")
    task: str = choice("regression", TASKS)
    num_classes: int = 2
    alpha: float = setting(0.0, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    aux_weight: float = at_least(1.0, 0.0)
    seed: int = at_least(0, 0)
    optimizer: str = choice("adam", OPTIMIZERS)
    learning_rate: float = setting(0.0001, lambda v: v > 0.0, "> 0")
    batch_size: int = at_least(32, 1)
    epochs: int = at_least(100, 1)
    patience: int = at_least(12, 1)

    def validate(self) -> None:
        _check_partition(self.feature_partition)
        if self.task == "classification" and self.num_classes < 2:
            raise ConfigError(f"classification needs num_classes >= 2, got {self.num_classes}")

    @property
    def n_experts(self) -> int:
        return len(self.feature_partition)

    @property
    def n_features(self) -> int:
        return sum(len(g) for g in self.feature_partition)

    @property
    def out_dim(self) -> int:
        return self.num_classes if self.task == "classification" else 1


class Mlp:
    """Plain stack of dense layers; iterating yields the layers."""

    def __init__(self, layers: list[DenseLayer]):
        self.layers = layers

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]


def _zero_mlp(name, p, dims, hidden_act, out_act, mask=None, head="head") -> Mlp:
    """p stacked networks of all-zero layers `name.hidden_k`, then `name.<head>`,
    from dims[k] to dims[k+1]; `mask` masks the first layer."""
    layers = []
    for k in range(len(dims) - 1):
        last = k == len(dims) - 2
        label = f"{name}.{head}" if last else f"{name}.hidden_{k}"
        shape = (p, dims[k + 1], dims[k])
        layers.append(DenseLayer(
            Tensor(np.zeros(shape), requires_grad=True, name=f"{label}.weights"),
            Tensor(np.zeros(shape[:-1]), requires_grad=True, name=f"{label}.bias"),
            out_act if last else hidden_act, mask=None if k else mask))
    return Mlp(layers)


def _probe_stack(name, blocks, dims, out_act) -> Mlp:
    """A Granger probe stack of p+1 all-zero relu networks over dims[0] input
    columns, p = len(blocks): slot 0 reads every column, and slot i+1's first
    layer is masked off columns blocks[i]."""
    mask = np.ones((len(blocks) + 1, 1, dims[0]))
    for i, cols in enumerate(blocks):
        mask[i + 1, :, cols] = 0.0
    return _zero_mlp(name, len(blocks) + 1, dims, "relu", out_act, mask=mask)


@dataclass
class AmeOutput:
    """Per-batch forward results as tape tensors, plus the model they came from.

    y is the prediction ((n, 1) values or (n, k) class probabilities) and
    c the contributions, (n, p, out) with experts on axis 1.

    The Granger probe outputs y_aux, (n, p+1, out) with slot 0 reading every
    expert and slot i+1 all but expert i, are built from h_all by `model`'s
    probe stack when first read, so a caller that reads only the attention
    or the prediction puts no probe op on the tape. Read them before the
    parameters change (the training loss does).
    """

    y: Tensor
    a: Tensor
    c: Tensor
    h_all: Tensor
    model: AmeModel

    @cached_property
    def y_aux(self) -> Tensor:
        return self.model.aux(self.h_all)


class AmeModel:
    """Built model: stacked experts, heads and gates, and the probe stack."""

    def __init__(self, config: AmeConfig, experts: Mlp, heads: Mlp, gate_projection: DenseLayer,
                 gate_context: Tensor, aux: Mlp, group_index: np.ndarray):
        self.config = config
        self.experts = experts          # hidden stacks over the feature groups
        self.heads = heads              # contribution heads: one stacked layer
        self.gate_projection = gate_projection
        self.gate_context = gate_context
        self.aux = aux                  # p+1 probes; slot i+1 masked off expert i's block
        self.group_index = group_index  # (p, g_max) input columns; n_features pads
        self.n_features = config.n_features  # the pad index; read by every forward
        self.forward_passes = 0
        self.backward_passes = 0

    # Read-only alias of `aux` under its two former names; only perfbench's
    # tracer reads them, to tag the probe stack.
    aux_excl = aux_all = property(lambda self: self.aux)

    def parameters(self) -> list[Tensor]:
        return self.main_parameters() + self.aux.parameters()

    def main_parameters(self) -> list[Tensor]:
        """Experts, heads, and gates; the sub-networks the prediction reads."""
        return (self.experts.parameters() + self.heads.parameters()
                + self.gate_projection.parameters() + [self.gate_context])

    def reset_pass_counts(self) -> None:
        self.forward_passes = 0
        self.backward_passes = 0

    def count_backward(self) -> None:
        self.backward_passes += 1


def _zero_model(config: AmeConfig) -> AmeModel:
    """The stacked architecture with every parameter zero."""
    p, out, h = config.n_experts, config.out_dim, config.expert_hidden[-1]
    width = p * (h + out)
    group_index = np.full((p, max(map(len, config.feature_partition))), config.n_features)
    for i, group in enumerate(config.feature_partition):
        group_index[i, :len(group)] = group
    head_act = "softmax" if config.task == "classification" else "identity"
    experts = _zero_mlp("experts", p, [group_index.shape[1], *config.expert_hidden, out],
                        "tanh", "identity")
    return AmeModel(
        config, Mlp(experts.layers[:-1]), Mlp(experts.layers[-1:]),
        _zero_mlp("gates", p, [width, config.gate_hidden], None, "tanh",
                  head="projection").layers[0],
        Tensor(np.zeros((p, config.gate_hidden)), requires_grad=True, name="gates.context"),
        _probe_stack("aux", [slice(i * (h + out), (i + 1) * (h + out)) for i in range(p)],
                     [width, *config.aux_hidden, out], head_act), group_index)


def draw_slot(rng: np.random.Generator, layers, j: int, live: np.ndarray) -> None:
    """Glorot-draw map j of each of `layers` in turn, the first layer's over
    its input columns where `live` is true only; the others stay zero. A map
    with no live column draws one column and keeps none."""
    for k, layer in enumerate(layers):
        w = layer.weights.data[j]
        cols = np.flatnonzero(live) if k == 0 else np.arange(w.shape[1])
        drawn = glorot(rng, (w.shape[0], max(cols.size, 1)))
        w[:, cols] = drawn[:, :cols.size]


def build_ame(config: AmeConfig) -> AmeModel:
    """A model whose every parameter its seed determines, drawn stack by stack
    (experts with their heads, gate projections, probes), slot by slot
    (`draw_slot`), then `gates.context`. Weights are Glorot-uniform over a
    map's live inputs, so padded columns and masked probe blocks stay zero;
    biases are zero, and context vectors Gaussian/sqrt(gate_hidden), keeping
    initial attention near uniform."""
    config.check()
    model = _zero_model(config)
    rng = np.random.default_rng(config.seed)
    width = model.gate_projection.weights.shape[2]
    for layers, live in ((model.experts.layers + model.heads.layers,
                          model.group_index < model.n_features),
                         ([model.gate_projection], np.ones((config.n_experts, width), bool)),
                         (model.aux.layers, model.aux.layers[0].mask[:, 0])):
        for j, slot_live in enumerate(live):
            draw_slot(rng, layers, j, slot_live)
    context = model.gate_context.data
    context[:] = rng.normal(size=context.shape) / np.sqrt(context.shape[1])
    return model


def combined_state(h: Tensor, c: Tensor) -> Tensor:
    """Interleave hidden states (n, p, h) and contributions (n, p, out) into
    (h1, c1, ..., hp, cp), shape (n, p*(h+out))."""
    if h.shape[:2] != c.shape[:2]:
        raise ValueError(f"hidden states {h.shape} and contributions {c.shape} differ in n or p")
    return concat([h, c], axis=2).reshape(h.shape[0], -1)


def attention(projection: DenseLayer, context: Tensor, h_all: Tensor) -> Tensor:
    """Attention vector over experts, shape (n, p), rows on the simplex: gate
    i scores its projection of h_all against its context vector, context[i]."""
    return softmax(map_dot(projection(h_all), context), axis=1)


def group_inputs(model: AmeModel, x) -> np.ndarray:
    """The (n, p, g_max) expert inputs of a batch x of shape (n, n_features):
    slice i holds group i's columns, and its pad entries read 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ConfigError(
            f"input shape {x.shape} does not provide {model.n_features} features")
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)[:, model.group_index]


def expert_states(model: AmeModel, groups) -> tuple[Tensor, Tensor]:
    """Expert stage of a forward pass over `group_inputs` groups (n, p, g_max),
    an array or a tracked Tensor: hidden states h (n, p, h) and contributions
    c (n, p, out). Expert i reads slice i only, each row and map in a BLAS
    call of its own, so its state for a row depends on nothing else."""
    h = model.experts(groups if isinstance(groups, Tensor) else Tensor(groups))
    return h, model.heads(h)


def mix(model: AmeModel, h: Tensor, c: Tensor) -> AmeOutput:
    """Mix stage of a forward pass, counted as the model's one forward: the
    gates' attention over the combined state of the hidden states h (n, p, h)
    and contributions c (n, p, out), the attention-weighted sum of the
    contributions, and the prediction. Each row is computed as it would be
    alone."""
    model.forward_passes += 1
    h_all = combined_state(h, c)
    a = attention(model.gate_projection, model.gate_context, h_all)
    combined = weighted_sum(a, c)
    y = softmax(combined, axis=1) if model.config.task == "classification" else combined
    # Granger probes read h_all when read. Probe slot i+1's mask removes both
    # expert i's hidden state and its contribution, so it sees nothing of it.
    return AmeOutput(y=y, a=a, c=c, h_all=h_all, model=model)


def forward(model: AmeModel, x) -> AmeOutput:
    """Full forward pass over a batch x of shape (n, n_features): the group
    gather, the expert stage, then the mix stage."""
    return mix(model, *expert_states(model, group_inputs(model, x)))


def importance(output: AmeOutput) -> np.ndarray:
    """Importance read-out: the attention matrix, copied, shape (n, p)."""
    return output.a.data.copy()


# -- serialization ---------------------------------------------------------

@contextmanager
def atomic_open(path, newline=None):
    """Text file to write `path` through: a temporary file beside it that
    replaces `path` (os.replace) when the block ends, and is removed instead
    when the block raises, so `path` only ever holds its old bytes or all of
    the new ones."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, columns, rows) -> None:
    """A CSV table at `path` (through `atomic_open`): the header `columns`,
    then `[row[c] for c in columns]` for each row dict, so a row missing a
    column raises."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def model_to_dict(model: AmeModel) -> dict:
    """The format-4 document: each parameter's values as the base64 text of
    its C-order little-endian float64 bytes, plus the model's `model_hash`."""
    params = {p.name: {"shape": list(p.shape), "values": base64.b64encode(
        np.ascontiguousarray(p.data, dtype="<f8")).decode("ascii")} for p in model.parameters()}
    return {"format": MODEL_FORMAT, "config": model.config.to_dict(), "seed": model.config.seed,
            "model_hash": model_hash(model), "params": params}


def _stored_values(params: dict, name: str, shape: tuple) -> np.ndarray:
    """Parameter `name`'s values: base64 `<f8` bytes of its built `shape`."""
    try:
        stored, values = list(params[name]["shape"]), params[name]["values"]
        if not isinstance(values, str):
            raise TypeError(f"values must be base64 text, not {type(values).__name__}")
        values = base64.b64decode(values, validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {name}: malformed entry ({exc!r})") from None
    if stored != list(shape):
        raise ConfigError(f"parameter {name}: stored shape {stored} != built shape {list(shape)}")
    if len(values) != (nbytes := 8 * int(np.prod(shape))):
        raise ConfigError(f"parameter {name}: {len(values)} bytes stored; "
                          f"shape {stored} needs {nbytes}")
    values = np.frombuffer(values, dtype="<f8")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"parameter {name}: non-finite value")
    return values.reshape(shape)


def model_from_dict(raw: dict) -> AmeModel:
    """Rebuild a model from a format-4 document, which must hold the
    `model_hash` of what it rebuilds. Any other format is refused."""
    if not (isinstance(raw, dict) and isinstance(raw.get("config"), dict)
            and isinstance(raw.get("params"), dict)):
        raise ConfigError("model document needs 'config' and 'params' objects")
    fmt = raw.get("format", 1)  # format 1 wrote no `format` field
    if type(fmt) is not int or fmt != MODEL_FORMAT:
        raise ConfigError(f"model format {fmt!r} does not load; only format {MODEL_FORMAT} "
                          "does. Retrain the model from its run's config.json")
    model = _zero_model(AmeConfig.from_dict(raw["config"]))
    params = raw["params"]
    expected = [t.name for t in model.parameters()]
    missing = [name for name in expected if name not in params]
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise ConfigError(f"parameter {(missing + extra)[0]}: " + (
            "missing from the model document" if missing else "not part of this architecture"))
    for t in model.parameters():
        t.data[...] = _stored_values(params, t.name, t.shape)
    pad = (model.group_index == model.n_features)[:, None, :]
    for layer, zero in ((model.experts.layers[0], pad),
                        (model.aux.layers[0], model.aux.layers[0].mask == 0)):
        if np.any((layer.weights.data != 0.0) & zero):
            raise ConfigError(f"parameter {layer.weights.name}: non-zero entry in a padded "
                              "column or masked probe block")
    if raw.get("model_hash") != (digest := model_hash(model)):
        raise ConfigError("model_hash: " + (
            f"stored {raw['model_hash']!r} != {digest!r} of the stored config and values; "
            "the document was edited or corrupted" if "model_hash" in raw
            else "missing from the model document"))
    seed = model.config.seed  # model_hash covers this one, not the top-level copy
    if "seed" in raw and (type(raw["seed"]) is not int or raw["seed"] != seed):
        raise ConfigError(f"seed: stored {raw['seed']!r} != config seed {seed!r}")
    return model


def save_model(model: AmeModel, path) -> None:
    with atomic_open(path) as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> AmeModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, truncated, or not UTF-8 text
            raise ConfigError(f"{path}: not a model document ({exc})") from None
    return model_from_dict(raw)


def model_hash(model: AmeModel) -> str:
    """Stable identity of a model (hex digest prefix): sha256 over the
    sorted-key JSON of its config, then, for each tensor of `parameters()`,
    its name and shape (as JSON) and its values as little-endian float64
    bytes."""
    digest = hashlib.sha256(json.dumps(model.config.to_dict(), sort_keys=True,
                                       separators=(",", ":")).encode("utf-8"))
    for t in model.parameters():
        digest.update(json.dumps([t.name, list(t.shape)]).encode("utf-8"))
        digest.update(np.ascontiguousarray(t.data, dtype="<f8"))
    return digest.hexdigest()[:16]
