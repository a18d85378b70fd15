"""Span tracing of topstruct's layers, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper at every
place it is reachable from: the module that defines it and every
topstruct module that imported it by name.  Methods are wrapped on
their class.  ``Tracer.restore`` puts every original back.

Timed functions record a span ``(name, start, end, parent, graph,
budget_exceeded)``.  Counted functions (the bitset kernels and
``Graph.contract_edge``, which run millions of times) only bump a
counter, because timing each call would swamp the trace.  Per-layer
metrics are derived from the spans after the run.
"""

import json
import sys
import time
from functools import wraps

# (module, function, class for a method or None), timed with a span.
SPANS = [
    ("pipeline", "run_structure", None),
    ("lean", "build_k_lean", None),
    ("lean", "improvement_step", None),
    ("decomposition", "check_k_lean", "TreeDecomposition"),
    ("separations", "enumerate_separations", None),
    ("separations", "is_tight", None),
    ("flows", "disjoint_path_system", None),
    ("obstructions", "find_k_blocks", None),
    ("obstructions", "find_clique_model", None),
    ("obstructions", "find_z_based_model", None),
    ("obstructions", "extract_subdivision", None),
    ("pipeline", "select_f", None),
    ("pipeline", "color_nodes", None),
    ("pipeline", "contract_blue", None),
    ("verifier", "verify_theorem", None),
    ("verifier", "verify_subdivision", None),
    ("verifier", "minor_oracle", None),
    ("verifier", "canonical_key", None),
    ("cli", "main", None),
    ("graph", "load_gr", None),
    ("decomposition", "load_td", None),
]

# The same, but only counted.
COUNTS = [
    ("graph", "contract_edge", "Graph"),
    ("_kernels", "reachable", None),
    ("_kernels", "components", None),
    ("_kernels", "is_connected", None),
    ("_kernels", "max_disjoint_paths", None),
]


class Tracer:
    """Collects spans and call counts for one traced pass."""

    def __init__(self, budget_error):
        self.budget_error = budget_error
        self.spans = []  # [name, start, end, parent index, graph, budget]
        self.counts = {}  # name -> [calls]
        self.results = {}  # outcome counters, see _note
        self.graph = None
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        for module, attr, owner in SPANS:
            self._patch(module, attr, owner, self._span_wrapper)
        for module, attr, owner in COUNTS:
            self._patch(module, attr, owner, self._count_wrapper)

    def restore(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, owner, factory):
        mod = sys.modules["topstruct." + module]
        name = "%s.%s" % (module, attr)
        if owner is not None:
            cls = getattr(mod, owner)
            original = cls.__dict__[attr]
            self._set(cls, attr, original, factory(name, original))
            return
        original = getattr(mod, attr)
        wrapper = factory(name, original)
        sites = [
            m for key, m in sorted(sys.modules.items())
            if key == "topstruct" or key.startswith("topstruct.")
        ]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    self._set(site, key, original, wrapper)

    def _set(self, target, attr, original, wrapper):
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        budget_error = self.budget_error
        note = self._note
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.graph, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()
            note(name, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note(self, name, result):
        """Outcome counters that need the return value."""
        if name == "obstructions.find_clique_model":
            self._bump(name + ".found", result is not None)
        elif name == "separations.enumerate_separations":
            self._bump(name + ".items", len(result))
        elif name == "verifier.canonical_key":
            self._bump(
                name + ".fallbacks",
                len(result) > 1 and result[1] == "labeled",
            )

    def _bump(self, key, amount):
        self.results[key] = self.results.get(key, 0) + int(amount)

    # -- results ---------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "graph",
                               "budget_exceeded"],
                    "spans": self.spans,
                    "counts": {k: v[0] for k, v in self.counts.items()},
                },
                fh,
            )

    def _times(self):
        """{name: (calls, self seconds, inclusive seconds, budget hits)}.

        Self time is a span's duration minus its children's; inclusive
        time skips spans nested in a span of the same name.
        """
        table = {"%s.%s" % (m, a): [0, 0.0, 0.0, 0] for m, a, _ in SPANS}
        spans = self.spans
        for name, start, end, parent, _, hit in spans:
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[3] += hit
            if parent >= 0:
                table[spans[parent][0]][1] -= end - start
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row[2] += end - start
        return table

    def time_table(self):
        """(name, self s, inclusive s) by decreasing self time."""
        rows = [(name, s, incl) for name, (_, s, incl, _) in
                self._times().items() if incl > 0]
        return sorted(rows, key=lambda row: -row[1])

    def layer_metrics(self):
        """Per-layer metrics of the traced pass as {name: (value, unit)}."""
        out = {}
        for name, (calls, self_s, _, budget) in self._times().items():
            out[name + ".calls"] = (calls, "count")
            out[name + ".s"] = (self_s, "s")
            out[name + ".budget_exceeded"] = (budget, "count")
        searches = out["obstructions.find_clique_model.calls"][0]
        found = self.results.get("obstructions.find_clique_model.found", 0)
        out["obstructions.find_clique_model.hit_ratio"] = (
            found / searches if searches else 0.0, "ratio")
        for key in ("separations.enumerate_separations.items",
                    "verifier.canonical_key.fallbacks"):
            out[key] = (self.results.get(key, 0), "count")
        for name, cell in self.counts.items():
            out[name + ".calls"] = (cell[0], "count")
        return out
