"""In-process tracing of the library's public entry points.

``Tracer.install()`` replaces each traced function or method with a
wrapper that records a span around the call, for this process only; the
library's source is not touched.  A function is replaced in every
``pavelka`` module that holds a reference to it, so calls through
``from .x import f`` bindings are traced as well.

Spans are aggregated as they close: per name, the number of calls and
the self time (span duration minus the time covered by child spans).
Single-threaded use only: the span stack is shared.
"""

import sys
import time

# (module, attribute path, span name); generators are traced per resumption
TARGETS = (
    ("pavelka.structures", "Structure.__init__", "structures.Structure"),
    ("pavelka.evaluator", "Evaluator.value", "evaluator.value"),
    ("pavelka.evaluator", "entails", "evaluator.entails"),
    ("pavelka.omitting", "enumerate_structures", "omitting.enumerate_structures"),
    ("pavelka.omitting", "search_model", "omitting.search_model"),
    ("pavelka.omitting", "omits", "omitting.omits"),
    ("pavelka.omitting", "type_distance", "omitting.type_distance"),
    ("pavelka.omitting", "generator_check", "omitting.generator_check"),
    ("pavelka.syntax", "parse_formula", "syntax.parse_formula"),
    ("pavelka.syntax", "expand_abbreviations", "syntax.expand_abbreviations"),
    ("pavelka.transforms", "thicken", "transforms.thicken"),
    ("pavelka.connectives", "certify", "connectives.certify"),
    ("pavelka.connectives", "grid_max_error", "connectives.grid_max_error"),
    ("pavelka.storage", "load_structure", "storage.load"),
    ("pavelka.storage", "load_family", "storage.load"),
    ("pavelka.storage", "load_theory", "storage.load"),
    ("pavelka.storage", "load_typesets", "storage.load"),
    ("pavelka.storage", "load_space", "storage.load"),
    ("pavelka.storage", "load_vocabulary", "storage.load"),
    ("pavelka.storage", "load_signature", "storage.load"),
    ("pavelka.storage", "dump_json", "storage.dump_json"),
)
GENERATORS = frozenset({"omitting.enumerate_structures"})
CLI_HANDLER = "cli.handler"


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}          # extra exact counts, by name
        self.certified_terms = []  # terms passed to connectives.certify
        self._stack = []          # [start, time covered by children]
        self._active = {}         # span name -> open spans of that name
        self._undo = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name):
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name, call=True):
        end = time.perf_counter()
        start, children = self._stack.pop()
        self._active[name] -= 1
        span = end - start
        if self._stack:
            self._stack[-1][1] += span
        self.self_s[name] = self.self_s.get(name, 0.0) + span - children
        if call:
            self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        if name in GENERATORS:
            def traced_generator(*args, **kwargs):
                tracer._enter(name)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    tracer._exit(name)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, call=False)
                    tracer.count(name + ".yielded")
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            if name == "evaluator.value" and tracer._active.get(
                    "omitting.search_model"):
                tracer.count("evaluator.value.in_search")
            if name == "connectives.certify":
                tracer.certified_terms.append(args[0] if args else kwargs["term"])
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if name == "omitting.search_model":
                tracer.count("omitting.search_model.examined", out.examined)
            return out
        return traced

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pavelka"
                                      or mod_name.startswith("pavelka.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        """Wrap every traced entry point that the library defines.
        Returns the span names whose target was not found."""
        missing = []
        for mod_name, path, name in TARGETS:
            module = sys.modules.get(mod_name) or __import__(
                mod_name, fromlist=["_"])
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr)
            if original is None:
                missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
            else:
                self._replace_everywhere(original, wrapped)
        cli = sys.modules.get("pavelka.cli")
        if cli is not None:
            for attr, value in list(vars(cli).items()):
                if attr.startswith("cmd_") and callable(value):
                    setattr(cli, attr, self._wrap(CLI_HANDLER, value))
                    self._undo.append((cli, attr, value))
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Aggregates as plain JSON data; DAG sizes are taken here,
        outside every span."""
        from pavelka import connectives
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "dag_nodes": sum(connectives.dag_size(t)
                                 for t in self.certified_terms)}


def merge(snapshots):
    """Sum several snapshots (one per process) into one."""
    out = {"calls": {}, "self_s": {}, "counts": {}, "dag_nodes": 0}
    for snap in snapshots:
        for key in ("calls", "self_s", "counts"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["dag_nodes"] += snap["dag_nodes"]
    return out
