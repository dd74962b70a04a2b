"""Span tracing of mlpoly's layers from outside the program.

:class:`Tracer` wraps every public function of each layer module, and the
public methods of the classes those modules define, at every mlpoly module
that binds them: ``rgamma`` is replaced in ``gamma_core`` and also in
``fractional_hermite``, ``fokker_planck`` and the others that imported it.
Calls made inside the library are therefore caught without editing it.

A span records its name, start, end, parent span and operation id.  Spans are
kept in flat arrays in memory and written out by :meth:`Tracer.write`.
Self time is a span's duration minus the time its child spans cover; the
tracer sums it per layer as spans close.
"""

import importlib
import json
import pkgutil
import types
from array import array
from collections import Counter
from time import perf_counter_ns

#: mlpoly modules that count as layers, in stack order.
LAYERS = ("gamma_core", "mittag_leffler", "fracpoly", "fractional_hermite", "ml_polynomials",
          "sheffer", "caputo", "fokker_planck", "verify", "cli")

#: dunder methods that do a layer's work (construction, arithmetic, evaluation).
_DUNDERS = {"__init__", "__post_init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__"}

#: spans whose inclusive time is the solver's output serialisation.
SERIALIZE = {"SolutionProfile.__init__", "SolutionProfile.to_csv", "SolutionProfile.to_json_obj"}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = -1
        self.calls = Counter()      # spans per layer
        self.self_ns = Counter()    # self time per layer
        self.by_name = Counter()    # spans per span name
        self.serialize_ns = 0
        self.ml_terms = 0
        self.ml_refusals = 0
        self.gamma_args = set()
        self._stack = []            # open spans: [index, child_ns, result_counted, refusal_counted]
        self._restore = []

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the layers' public callables wherever mlpoly binds them."""
        import mlpoly

        modules = [mlpoly] + [importlib.import_module(f"mlpoly.{m.name}")
                              for m in pkgutil.iter_modules(mlpoly.__path__)]
        wrappers = {}
        classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                if isinstance(value, types.FunctionType):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, value.__qualname__, layer)
                    self._replace(module, attr, value, wrappers[value])
                elif isinstance(value, type) and value not in classes:
                    classes.add(value)
                    for name, member in list(vars(value).items()):
                        if isinstance(member, types.FunctionType) and (
                                not name.startswith("_") or name in _DUNDERS):
                            self._replace(value, name, member,
                                          self._wrap(member, f"{value.__name__}.{name}", layer))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _name(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, layer):
        nid = self._name(name)
        tracer = self
        stack = self._stack
        is_gamma = layer == "gamma_core"
        is_series = layer == "mittag_leffler"
        is_serialize = name in SERIALIZE

        def span(*args, **kwargs):
            index = len(tracer.start_ns)
            tracer.start_ns.append(0)
            tracer.end_ns.append(0)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op_id.append(tracer.op)
            if is_gamma:
                tracer.gamma_args.add(args)
            frame = [index, 0, False, False]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if is_series and not frame[3] and type(exc).__name__ == "ConvergenceError":
                    tracer.ml_refusals += 1
                    frame[3] = True
                raise
            else:
                if is_series and not frame[2] and hasattr(result, "terms_used"):
                    # counted at the innermost evaluator only: ml_one defers to ml_two
                    tracer.ml_terms += result.terms_used
                    frame[2] = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.start_ns[index] = start
                tracer.end_ns[index] = end
                tracer.calls[layer] += 1
                tracer.by_name[nid] += 1
                tracer.self_ns[layer] += duration - frame[1]
                if is_serialize:
                    tracer.serialize_ns += duration
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent[2] = parent[2] or frame[2]
                    parent[3] = parent[3] or frame[3]

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    # -- results -------------------------------------------------------------------

    def count(self, name):
        """Number of spans recorded under one span name."""
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.by_name[nid]

    def totals(self):
        """Raw totals, summable across processes."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "serialize_ns": self.serialize_ns,
            "ml_terms": self.ml_terms,
            "ml_refusals": self.ml_refusals,
            "gamma_distinct": len(self.gamma_args),
            "fracpoly_constructions": self.count("FracPoly.__init__"),
            "spans": len(self.start_ns),
        }

    def write(self, stem, **meta):
        """Write the spans to ``<stem>.bin`` and a JSON description to ``<stem>.json``.

        The binary file holds five columns one after the other, in native
        byte order: start_ns and end_ns (int64), then name, parent and op
        (int32); ``names`` maps a name id to the span name, parent -1 is a
        root span.
        """
        columns = (self.start_ns, self.end_ns, self.name_id, self.parent, self.op_id)
        with open(f"{stem}.bin", "wb") as fh:
            for column in columns:
                column.tofile(fh)
        doc = {
            **meta,
            "spans": len(self.start_ns),
            "columns": [["start_ns", "q"], ["end_ns", "q"], ["name", "i"], ["parent", "i"], ["op", "i"]],
            "names": self.names,
            "totals": self.totals(),
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _layer_of(value):
    module = getattr(value, "__module__", None) or ""
    if not module.startswith("mlpoly."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def merge_totals(parts):
    """Sum the totals of several traced processes."""
    out = {"calls": Counter(), "self_ns": Counter()}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                out[key].update(value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(totals, ops):
    """Per-operation layer metrics from tracer totals over ``ops`` operations."""
    calls, self_ns = totals["calls"], totals["self_ns"]
    per_op = 1.0 / ops
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    gamma_calls = calls.get("gamma_core", 0)
    for layer in LAYERS:
        seconds = self_ns.get(layer, 0) * 1e-9 * per_op
        if layer == "fracpoly":
            put("fracpoly.constructions", totals["fracpoly_constructions"] * per_op, "1/op")
        elif layer not in ("verify", "cli"):
            put(f"{layer}.calls", calls.get(layer, 0) * per_op, "1/op")
        put(f"{layer}.self_s", seconds, "s/op")
    put("gamma_core.distinct_arg_ratio",
        totals["gamma_distinct"] / gamma_calls if gamma_calls else 0.0, "ratio")
    put("mittag_leffler.terms", totals["ml_terms"] * per_op, "1/op")
    put("mittag_leffler.refusals", totals["ml_refusals"] * per_op, "1/op")
    put("fokker_planck.serialize_s", totals["serialize_ns"] * 1e-9 * per_op, "s/op")
    put("trace.spans", totals["spans"] * per_op, "1/op")
    return metrics
