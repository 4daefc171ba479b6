"""Spans around the library's layers, recorded from outside the library.

`Instrumentation` replaces selected public functions and methods of
`ame_lab` with timing wrappers for the life of a `with` block and puts the
originals back afterwards; the library's source is never edited. A pass
enters it around each traced operation only, so its untraced operations
run the unwrapped library, as in an untraced run. A function imported by
name into another module (`from .diffcore import concat`) is a separate
binding there, so every module binding and every registry dict entry that
holds the original is replaced.

Span names are `<layer>.<what>`; the layer is the library module
(`diffcore`, `model`, `granger`, `attribution`, `benchmark`, `cli`). The
benchmark's own closed-loop operations are root spans named `op.<phase>`.
"""

from __future__ import annotations

import gzip
import time
import weakref
from contextlib import contextmanager

import numpy as np

from perfbench.summary import layer_of, self_time_by_layer, self_times

LAYERS = ("diffcore", "model", "granger", "attribution", "benchmark", "cli")


class Tracer:
    """In-memory span store for one thread.

    Each record is [name, start, end, parent, op]: times from
    time.perf_counter, parent the index of the enclosing span (-1 for a
    root), op the index of the benchmark operation the span belongs to.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.op_names: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def op(self, phase: str):
        """Root span of one benchmark operation; every span inside shares its id."""
        if self._stack:
            raise RuntimeError("benchmark operations do not nest")
        self._op = len(self.op_names)
        self.op_names.append(phase)
        idx = self.open(f"op.{phase}")
        try:
            yield
        finally:
            self.close(idx)
            self._op = -1

    def write(self, path) -> None:
        """Write every span as CSV (gzip), once the run has ended."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# run_id={self.run_id}\n")
            fh.write("index,name,start_s,end_s,parent,op,op_name\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                op_name = self.op_names[op] if op >= 0 else ""
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{op_name}\n")


class Instrumentation:
    """Timing wrappers installed into the `ame_lab` modules inside `with`.

    It may be entered again after each exit; the counters add up over
    every entry.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._tagged: weakref.WeakSet = weakref.WeakSet()
        self._combined_seen = False
        # counters filled by result hooks
        self.omega_rows = 0
        self.omega_uniform_rows = 0
        self.report_calls = 0
        self.report_overhead_s = 0.0
        self.report_rows = 0
        self.degenerate_rows = 0

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Instrumentation":
        from ame_lab import attribution, benchmark, cli, diffcore, granger, model

        self._modules = (diffcore, model, granger, attribution, benchmark, cli)
        self._dicts = (attribution.ESTIMATORS, cli.RUNNERS)
        for owner, attr in (
                (diffcore, "linear"), (diffcore, "concat"), (diffcore, "optimizer_step"),
                (model, "importance"), (model, "model_hash"), (model, "save_model"),
                (model, "load_model"),
                (granger, "train_epoch"), (granger, "evaluate"), (granger, "fit"),
                (attribution, "granger_oracle"),
                (benchmark, "generate"), (benchmark, "train_model"),
                (benchmark, "masking_protocol"),
                (cli, "main"), (cli, "run_train"), (cli, "run_oracle")):
            self._replace(getattr(owner, attr), self._spanned(getattr(owner, attr),
                                                              f"{owner.__name__.split('.')[-1]}.{attr}"))
        self._replace(model.attention, self._spanned(model.attention, "model.gates"))
        self._replace(granger.batch_losses,
                      self._spanned(granger.batch_losses, "granger.batch_losses",
                                    after=self._count_omega))
        for name in ("explain_ame", "explain_saliency", "explain_occlusion"):
            fn = getattr(attribution, name)
            self._replace(fn, self._spanned(fn, f"attribution.{name}", after=self._count_report))
        self._replace(model.build_ame, self._spanned(model.build_ame, "model.build_ame"))
        self._replace(model.forward, self._forward_wrapper(model.forward))
        self._replace(model.combined_state, self._combined_wrapper(model.combined_state))
        self._patch_method(diffcore.Tensor, "backward", "diffcore.backward")
        self._patch_role_method(model.Mlp)
        self._patch_role_method(diffcore.DenseLayer)
        return self

    def __exit__(self, *exc) -> None:
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    def _replace(self, original, wrapper) -> None:
        """Point every module binding and registry entry holding `original` at `wrapper`."""
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((lambda k, v, m=mod: setattr(m, k, v), attr, original))
                    setattr(mod, attr, wrapper)
        for registry in self._dicts:
            for key, value in list(registry.items()):
                if value is original:
                    self._undo.append((registry.__setitem__, key, original))
                    registry[key] = wrapper

    def _patch_method(self, cls, attr: str, span: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((lambda k, v, c=cls: setattr(c, k, v), attr, original))
        setattr(cls, attr, self._spanned(original, span))

    def _patch_role_method(self, cls) -> None:
        """Span `__call__` only for instances `_tag` gave a model stage."""
        original = cls.__dict__["__call__"]
        roles = self._roles
        tracer = self.tracer

        def call(obj, x):
            role = roles.get(obj)
            if role is None:
                return original(obj, x)
            idx = tracer.open(role)
            try:
                return original(obj, x)
            finally:
                tracer.close(idx)

        self._undo.append((lambda k, v, c=cls: setattr(c, k, v), "__call__", original))
        cls.__call__ = call

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name: str, after=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tag(self, model) -> None:
        """Give the model's sub-networks their stage, once per model."""
        if model in self._tagged:
            return
        for net in (*model.experts, *model.heads):
            self._roles[net] = "model.experts"
        for net in (*model.aux_excl, model.aux_all):
            self._roles[net] = "model.probes"
        self._tagged.add(model)

    def _forward_wrapper(self, fn):
        tracer = self.tracer

        def forward(model, x):
            self._tag(model)
            n = x.shape[0] if hasattr(x, "shape") else len(x)
            outer, self._combined_seen = self._combined_seen, False
            idx = tracer.open("model.forward.b1" if n == 1 else "model.forward.bn")
            try:
                return fn(model, x)
            finally:
                tracer.close(idx)
                self._combined_seen = outer

        return forward

    def _combined_wrapper(self, fn):
        """The first combined state of a forward feeds the gates; later ones
        (one per left-out expert) exist only for the Granger probes."""
        tracer = self.tracer

        def combined_state(h, c):
            name = "model.probes" if self._combined_seen else "model.combine"
            self._combined_seen = True
            idx = tracer.open(name)
            try:
                return fn(h, c)
            finally:
                tracer.close(idx)

        return combined_state

    # -- result hooks --------------------------------------------------------

    def _count_omega(self, idx, losses) -> None:
        from ame_lab.granger import OMEGA_FLOOR

        totals = np.maximum(losses.targets.delta_eps, 0.0).sum(axis=1)
        self.omega_rows += totals.size
        self.omega_uniform_rows += int(np.count_nonzero(totals <= OMEGA_FLOOR))

    def _count_report(self, idx, report) -> None:
        _, start, end, *_ = self.tracer.spans[idx]
        self.report_calls += 1
        self.report_overhead_s += (end - start) - report.seconds
        self.report_rows += report.n_samples
        self.degenerate_rows += int(np.count_nonzero(report.degenerate))


# -- aggregation ---------------------------------------------------------------


def outermost_totals(spans) -> dict[str, tuple[int, float]]:
    """(count, inclusive seconds) per span name, skipping spans nested in a
    span of the same name so no interval is counted twice."""
    out: dict[str, tuple[int, float]] = {}
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p >= 0:
            continue
        count, total = out.get(name, (0, 0.0))
        out[name] = (count + 1, total + (end - start))
    return out


def span_metrics(tracer: Tracer, instr: Instrumentation) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (times in ms)."""
    spans = tracer.spans
    ops = tracer.op_names
    totals = outermost_totals(spans)

    def ms(name: str) -> float:
        return 1e3 * totals.get(name, (0, 0.0))[1]

    def calls(name: str) -> float:
        return float(totals.get(name, (0, 0.0))[0])

    def in_ops(phase: str):
        return [s for s in spans if s[4] >= 0 and ops[s[4]] == phase]

    own = self_times(spans)
    by_layer = self_time_by_layer(spans)
    n_ops = {phase: ops.count(phase) for phase in ("fit", "oracle")}
    fit_spans = in_ops("fit")
    # per command: the time a command spends in cli code itself
    cli_self = {phase: 1e3 * sum(t for s, t in zip(spans, own)
                                 if s[4] >= 0 and ops[s[4]] == phase and layer_of(s[0]) == "cli")
                / max(n_ops[phase], 1)
                for phase in ("fit", "oracle")}
    occlusion_forward = sum(s[2] - s[1] for s in in_ops("occlusion")
                            if s[0].startswith("model.forward."))
    per_fit = 1.0 / max(n_ops["fit"], 1)
    metrics = {
        "diffcore.backward_ms": (ms("diffcore.backward"), "ms"),
        "diffcore.backward_calls": (calls("diffcore.backward"), "count"),
        "diffcore.optimizer_ms": (ms("diffcore.optimizer_step"), "ms"),
        "diffcore.linear_calls": (calls("diffcore.linear"), "count"),
        "diffcore.linear_ms": (ms("diffcore.linear"), "ms"),
        "diffcore.concat_calls": (calls("diffcore.concat"), "count"),
        "diffcore.concat_ms": (ms("diffcore.concat"), "ms"),
        "model.forward_calls": (calls("model.forward.b1") + calls("model.forward.bn"), "count"),
        "model.forward_b1_ms": (ms("model.forward.b1"), "ms"),
        "model.forward_bn_ms": (ms("model.forward.bn"), "ms"),
        "model.experts_ms": (ms("model.experts"), "ms"),
        "model.gates_ms": (ms("model.gates"), "ms"),
        "model.combine_ms": (ms("model.combine"), "ms"),
        "model.probes_ms": (ms("model.probes"), "ms"),
        "model.hash_ms": (ms("model.model_hash"), "ms"),
        "model.save_ms": (ms("model.save_model"), "ms"),
        "model.load_ms": (ms("model.load_model"), "ms"),
        "model.build_ms": (ms("model.build_ame"), "ms"),
        "granger.batch_losses_ms": (ms("granger.batch_losses"), "ms"),
        "granger.evaluate_ms": (ms("granger.evaluate"), "ms"),
        "granger.steps": (per_fit * sum(1 for s in fit_spans
                                        if s[0] == "diffcore.optimizer_step"), "count"),
        "granger.epochs_run": (per_fit * sum(1 for s in fit_spans
                                             if s[0] == "granger.train_epoch"), "count"),
        "granger.omega_uniform_share": (instr.omega_uniform_rows / max(instr.omega_rows, 1),
                                        "share"),
        "attribution.occlusion_forward_ms": (1e3 * occlusion_forward, "ms"),
        "attribution.report_overhead_ms": (1e3 * instr.report_overhead_s
                                           / max(instr.report_calls, 1), "ms"),
        "attribution.oracle_ms": (ms("attribution.granger_oracle"), "ms"),
        "attribution.degenerate_share": (instr.degenerate_rows / max(instr.report_rows, 1),
                                         "share"),
        "benchmark.generate_ms": (ms("benchmark.generate"), "ms"),
        "benchmark.masking_ms": (ms("benchmark.masking_protocol"), "ms"),
        "cli.train_self_ms": (cli_self["fit"], "ms"),
        "cli.oracle_self_ms": (cli_self["oracle"], "ms"),
        "trace.spans": (float(len(spans)), "count"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_self_ms"] = (1e3 * by_layer.get(layer, 0.0), "ms")
    return metrics
