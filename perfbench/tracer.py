"""Per-layer tracing from outside the program, and self-time analysis.

The child process (child.py) wraps the public function of each layer,
named in layers.json, and records one span per call: the traced name,
start, end and the index of the enclosing span.  Spans stay in memory and
are written once, when the command ends.  The parent process (run.py)
turns them into per-layer metrics with `layer_metrics`.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

import functools
import importlib
import json
import os
import sys
import time

LAYERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layers.json")

FORWARD = "nets.mlp.Mlp.forward"
Q_WEIGHTS = "diffusion.q_weights"


def traced_names():
    with open(LAYERS_PATH, encoding="utf-8") as fh:
        return [row["name"] for row in json.load(fh)["traced"]]


def _resolve(name):
    """(module, owner, attribute) of a name such as `nets.mlp.Mlp.forward`:
    the longest importable `saginsim.` prefix is the module."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(
                "saginsim." + ".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        owner = module
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return module, owner, parts[-1]
    raise LookupError("cannot resolve traced name %r" % name)


def _rebind_everywhere(original, replacement):
    """Point every module-level name and module-level dict entry in the
    saginsim package that holds `original` at `replacement`.  Covers
    `from x import f` copies and registries such as a dict of policies."""
    sites = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "saginsim"
                                  or mod_name.startswith("saginsim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        sites += 1
    return sites


class Tracer:
    """Span recorder; `install` patches the program, `dump` writes spans."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.spans = []       # [name index, start, end, parent span or -1]
        self._stack = []
        self.counters = {"forward_rows": 0, "forward_macs": 0,
                         "q_weight_rows": 0, "q_weight_positive": 0}

    def _span(self, name, fn, count=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = [index, start, end, parent]
        return traced

    def _count_forward(self, args):
        net, x = args[0], args[1]
        rows = len(x) if getattr(x, "ndim", 1) == 2 else 1
        widths = net.widths
        self.counters["forward_rows"] += rows
        self.counters["forward_macs"] += rows * sum(
            a * b for a, b in zip(widths[:-1], widths[1:]))

    def _count_q_weights(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            weights = fn(*args, **kwargs)
            self.counters["q_weight_rows"] += int(weights.size)
            self.counters["q_weight_positive"] += int((weights > 0.0).sum())
            return weights
        return counted

    def install(self, names):
        """Wrap every traced name at each place the program looks it up."""
        for name in names:
            module, owner, attr = _resolve(name)
            target = getattr(owner, attr)
            count = self._count_forward if name == FORWARD else None
            if isinstance(target, type):
                # a class: its construction is the traced call
                target.__init__ = self._span(name, target.__init__)
            elif owner is not module:
                setattr(owner, attr, self._span(name, target, count))
            elif not _rebind_everywhere(target, self._span(name, target)):
                raise LookupError("no reference to %s found" % name)
        module, _, attr = _resolve(Q_WEIGHTS)
        original = getattr(module, attr)
        _rebind_everywhere(original, self._count_q_weights(original))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "spans": self.spans,
                       "counters": self.counters}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to the span."""
    children = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, open_start, open_end = 0.0, None, None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if open_end is None or c_start > open_end:
                if open_end is not None:
                    covered += open_end - open_start
                open_start, open_end = c_start, c_end
            else:
                open_end = max(open_end, c_end)
        if open_end is not None:
            covered += open_end - open_start
        out.append(end - start - covered)
    return out


def layer_metrics(traces, wall_s):
    """Per traced name: calls per command, inclusive ms per call, and self
    time as a percentage of the commands' wall time.

    traces: the dumped span files of one or more identical commands; wall_s:
    their summed wall times.  Names never called report 0 for every metric.
    """
    names = traces[0]["names"]
    calls = [0] * len(names)
    inclusive = [0.0] * len(names)
    self_s = [0.0] * len(names)
    for trace in traces:
        if trace["names"] != names:
            raise ValueError("traces of different name sets")
        spans = trace["spans"]
        for (index, start, end, _), own in zip(spans, self_times(spans)):
            calls[index] += 1
            inclusive[index] += end - start
            self_s[index] += own
    runs = len(traces)
    out = {}
    for i, name in enumerate(names):
        out[name + ".calls"] = calls[i] // runs
        out[name + ".ms_per_call"] = \
            1e3 * inclusive[i] / calls[i] if calls[i] else 0.0
        out[name + ".self_pct"] = 100.0 * self_s[i] / wall_s
    counters = traces[0]["counters"]
    out[FORWARD + ".rows"] = counters["forward_rows"]
    out[FORWARD + ".macs"] = counters["forward_macs"]
    rows = counters["q_weight_rows"]
    out[Q_WEIGHTS + ".positive_share"] = \
        counters["q_weight_positive"] / rows if rows else 0.0
    return out
