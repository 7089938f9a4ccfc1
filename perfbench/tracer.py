"""Spans and counters around qexpander's entry points, recorded from outside.

The tracer replaces module attributes at run time: every binding of a wrapped
function inside the ``qexpander`` package (the defining module, the package
namespace and every module that imported the name) and the methods of the
channel classes.  Nothing in ``src/`` is edited.  ``uninstall`` puts every
original back.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out once, after the measurement.  A span is recorded only inside an
op (see :meth:`Tracer.op`); calls outside one, such as the benchmark's own
checks, run unrecorded.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "fileio", "circuits", "reduction", "channels", "spectral", "protocol", "thermalization")

#: (module, attribute, span name).  "Class.method" wraps a method; the flat
#: and composite channel classes share one span name per method.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("fileio", "load_reduction_spec", "fileio.load_reduction_spec"),
    ("fileio", "save_channel", "fileio.save_channel"),
    ("fileio", "load_instance", "fileio.load_instance"),
    ("circuits", "simulate_unitary", "circuits.simulate_unitary"),
    ("reduction", "build_base_expander", "reduction.build_base_expander"),
    ("reduction", "build_reduction", "reduction.build_reduction"),
    ("channels", "Channel.apply", "channels.apply"),
    ("channels", "Channel.superoperator", "channels.superoperator"),
    ("channels", "CompositeChannel.apply", "channels.apply"),
    ("channels", "CompositeChannel.superoperator", "channels.superoperator"),
    ("spectral", "spectral_gap", "spectral.gap"),
    ("spectral", "spectral_gap_dense", "spectral.gap_dense"),
    ("spectral", "spectral_gap_iterative", "spectral.gap_iterative"),
    ("spectral", "decide", "spectral.decide"),
    ("protocol", "merlin_witness", "protocol.merlin_witness"),
    ("protocol", "arthur_verify", "protocol.arthur_verify"),
    ("protocol", "estimate_contraction_sq", "protocol.estimate_contraction_sq"),
    ("protocol", "pair_unitary", "protocol.pair_unitary"),
    ("thermalization", "evolve", "thermalization.evolve"),
    ("thermalization", "decay_bound_check", "thermalization.decay_bound_check"),
)

ROOT = "op"

#: Per-layer metrics: name -> unit.  Every traced run reports all of them;
#: a layer the workload does not reach reads 0.  Counts and times are means
#: per traced op.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "harness.self_s": "s",
    "channels.superoperator.calls": "count",
    "channels.superoperator.s": "s",
    "spectral.gap_dense.calls": "count",
    "spectral.gap_dense.self_s": "s",
    "reduction.build_base_expander.self_s": "s",
    "reduction.build_base_expander.gap_calls": "count",
    "reduction.build_reduction.self_s": "s",
    "circuits.simulate_unitary.calls": "count",
    "circuits.simulate_unitary.s": "s",
    "fileio.load_reduction_spec.self_s": "s",
    "fileio.save_channel.s": "s",
    "fileio.load_instance.s": "s",
    "fileio.channel_file_bytes": "B",
    "cli.main.self_s": "s",
    "channels.apply.calls": "count",
    "channels.apply.s": "s",
    "spectral.gap_iterative.self_s": "s",
    "spectral.gap_iterative.iterations": "count",
    "spectral.gap_iterative.matvecs": "count",
    "spectral.gap_iterative.converged_ratio": "ratio",
    "protocol.merlin_witness.s": "s",
    "protocol.estimate_contraction_sq.s": "s",
    "protocol.pair_unitary.calls": "count",
    "protocol.arthur_verify.self_s": "s",
    "thermalization.evolve.s": "s",
    "thermalization.evolve.apply_calls": "count",
    "thermalization.decay_bound_check.self_s": "s",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
}


def _observe_iterative(counters, args, kwargs, result):
    counters["spectral.gap_iterative.iterations"] += int(result.iterations)
    counters["spectral.gap_iterative.converged"] += int(bool(result.converged))


def _observe_save(counters, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    counters["fileio.channel_file_bytes"] += os.path.getsize(path)


OBSERVERS = {
    "spectral.gap_iterative": _observe_iterative,
    "fileio.save_channel": _observe_save,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(f"{prefix}.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    continue
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self._stack[-1], self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observer is not None:
                observer(self.counters, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; layer spans are only recorded inside one."""
        self._op = op_id
        span = [ROOT, time.perf_counter(), 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, then one line holding the counters."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


# -- derived metrics --------------------------------------------------------


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_names(spans):
    """For each span, the set of names on its path to the root.

    Parents precede their children in the list, so one pass suffices; the
    sets are shared between siblings.
    """
    below: dict[int, frozenset] = {}  # parent index -> names of it and its ancestors
    out = []
    for s in spans:
        parent = s[3]
        if parent is None:
            out.append(frozenset())
            continue
        names = below.get(parent)
        if names is None:
            names = below[parent] = out[parent] | {spans[parent][0]}
        out.append(names)
    return out


def per_layer_metrics(spans, counters, traced_p50: float, untraced_p50: float) -> dict[str, float]:
    selfs = self_times(spans)
    ops = sum(1 for s in spans if s[0] == ROOT)
    calls: Counter = Counter()  # outermost spans of a name
    incl: Counter = Counter()  # their summed duration
    self_by_name: Counter = Counter()
    within: Counter = Counter()  # (name, ancestor) -> outermost spans of name under ancestor
    for s, self_s, ancestors in zip(spans, selfs, _ancestor_names(spans)):
        name = s[0]
        self_by_name[name] += self_s
        if name in ancestors:
            continue
        calls[name] += 1
        incl[name] += s[2] - s[1]
        for a in ancestors:
            within[(name, a)] += 1

    def layer_self(layer):
        return sum(t for n, t in self_by_name.items() if n.startswith(layer + "."))

    iterative_calls = calls["spectral.gap_iterative"]
    totals = {
        **{f"{layer}.self_s": layer_self(layer) for layer in LAYERS},
        "harness.self_s": self_by_name[ROOT],
        "channels.superoperator.calls": calls["channels.superoperator"],
        "channels.superoperator.s": incl["channels.superoperator"],
        "spectral.gap_dense.calls": calls["spectral.gap_dense"],
        "spectral.gap_dense.self_s": self_by_name["spectral.gap_dense"],
        "reduction.build_base_expander.self_s": self_by_name["reduction.build_base_expander"],
        "reduction.build_base_expander.gap_calls": within[("spectral.gap", "reduction.build_base_expander")],
        "reduction.build_reduction.self_s": self_by_name["reduction.build_reduction"],
        "circuits.simulate_unitary.calls": calls["circuits.simulate_unitary"],
        "circuits.simulate_unitary.s": incl["circuits.simulate_unitary"],
        "fileio.load_reduction_spec.self_s": self_by_name["fileio.load_reduction_spec"],
        "fileio.save_channel.s": incl["fileio.save_channel"],
        "fileio.load_instance.s": incl["fileio.load_instance"],
        "fileio.channel_file_bytes": counters["fileio.channel_file_bytes"],
        "cli.main.self_s": self_by_name["cli.main"],
        "channels.apply.calls": calls["channels.apply"],
        "channels.apply.s": incl["channels.apply"],
        "spectral.gap_iterative.self_s": self_by_name["spectral.gap_iterative"],
        "spectral.gap_iterative.iterations": counters["spectral.gap_iterative.iterations"],
        "spectral.gap_iterative.matvecs": within[("channels.apply", "spectral.gap_iterative")],
        "protocol.merlin_witness.s": incl["protocol.merlin_witness"],
        "protocol.estimate_contraction_sq.s": incl["protocol.estimate_contraction_sq"],
        "protocol.pair_unitary.calls": calls["protocol.pair_unitary"],
        "protocol.arthur_verify.self_s": self_by_name["protocol.arthur_verify"],
        "thermalization.evolve.s": incl["thermalization.evolve"],
        "thermalization.evolve.apply_calls": within[("channels.apply", "thermalization.evolve")],
        "thermalization.decay_bound_check.self_s": self_by_name["thermalization.decay_bound_check"],
    }
    metrics = {name: value / max(ops, 1) for name, value in totals.items()}
    # A workload with no iterative solve has no unconverged one either.
    metrics["spectral.gap_iterative.converged_ratio"] = (
        counters["spectral.gap_iterative.converged"] / iterative_calls if iterative_calls else 1.0
    )
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.untraced_op_p50_s"] = untraced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    assert set(metrics) == set(PER_LAYER_UNITS)
    return metrics
