"""Call tracing of the program from outside, for the per-layer metrics.

``Tracer.install`` wraps every public function of each symmpi module, and
every public method and property of the classes those modules define, and
points every reference to an original function (module attributes, package
re-exports, default arguments) at its wrapper. A wrapper times its call,
links it to the wrapped call that is running around it (its caller) and
charges its duration to that caller's child time, so that each call's self
time is its duration minus the time of the calls it made. Iterators returned
by a wrapped call are wrapped too, and each step of them is timed as a call
of the same name; this is how group enumeration is seen.

Calls are folded into per-name and per-(caller, callee) totals as they end,
instead of being kept one by one: a Monte-Carlo set makes hundreds of
thousands of them. The totals are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from collections.abc import Iterator

MODULES = ("groups", "transforms", "calibrate", "baselines", "network", "sim", "dataio", "cli")

# Layer categories: a call's inclusive time is charged to its category only
# when no call of the same category encloses it, so nesting is not counted
# twice (fit_regressors -> fit_linear, iter_mapping_batches -> elements).
_CATEGORY_RULES = (
    ("enum", lambda n: n.startswith("groups.") and n.rsplit(".", 1)[1] in ("iter_mapping_batches", "elements")),
    ("sample_act", lambda n: n.startswith("groups.") and n.endswith(("Group.sample", "Group.act"))),
    ("automorphism", lambda n: n == "groups.enumerate_automorphisms"),
    ("assembly", lambda n: n in ("calibrate.PredictionSet.intervals", "calibrate.PredictionSet.length")),
    ("fit", lambda n: n in ("transforms.fit_regressors", "transforms.fit_linear")),
    ("transform", lambda n: n in ("transforms.hierarchical_unsup_transform",
                                  "transforms.hierarchical_sup_transform",
                                  "calibrate.adaptive_center_scores_ragged")),
    ("orbit_index", lambda n: n == "groups.orbit_of_index"),
    ("gen", lambda n: n.startswith("sim.gen_")),
    ("read", lambda n: n.startswith("dataio.read_")),
    ("write", lambda n: n.startswith("dataio.write_")),
    ("run_benchmark", lambda n: n == "sim.run_benchmark"),
)

SET_BUILDERS = {
    "calibrate.symmpi_set", "calibrate.randomized_set", "calibrate.nonsym_set",
    "calibrate.symmpi_set_randomsize", "calibrate.supervised_hierarchical_set",
    "calibrate.hcp_first_obs_set",
}


def _category(name):
    for cat, rule in _CATEGORY_RULES:
        if rule(name):
            return cat
    return None


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # frames: [name, child_seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])  # (caller, callee) -> [calls, seconds]
        self.cat_depth = defaultdict(int)
        self.cat_time = defaultdict(float)
        # Within run_benchmark: generator and fit time, to take out of its total.
        self.in_bench = 0
        self.bench_excluded = 0.0
        self.enum_elements = 0

    # -- recording -----------------------------------------------------------

    def _enter(self, name, cat):
        self.stack.append([name, 0.0])
        if cat is not None:
            self.cat_depth[cat] += 1
        if cat == "run_benchmark":
            self.in_bench += 1

    def _leave(self, name, cat, dt):
        frame = self.stack.pop()
        caller = self.stack[-1][0] if self.stack else "<benchmark>"
        if self.stack:
            self.stack[-1][1] += dt
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame[1]
        edge = self.edges[(caller, name)]
        edge[0] += 1
        edge[1] += dt
        if cat is not None:
            self.cat_depth[cat] -= 1
            if self.cat_depth[cat] == 0:
                self.cat_time[cat] += dt
                if self.in_bench and cat in ("gen", "fit"):
                    self.bench_excluded += dt
        if cat == "run_benchmark":
            self.in_bench -= 1

    def wrap(self, name, fn):
        cat = _category(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name, cat)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, cat, tracer.clock() - t0)
            if isinstance(result, Iterator) and not hasattr(result, "shape"):
                return _TracedIterator(tracer, name, cat, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        import symmpi

        mods = [sys.modules[f"symmpi.{m}"] for m in MODULES]
        originals = {}
        for mod in mods:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in mods + [symmpi]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])
        for fn in originals:
            if fn.__defaults__:
                fn.__defaults__ = tuple(originals.get(d, d) if inspect.isfunction(d) else d
                                        for d in fn.__defaults__)

    def _wrap_class(self, qual, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qual}.{attr}"
            if isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(name, obj.fget), obj.fset, obj.fdel, obj.__doc__))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-name and per-edge totals, for the result file."""
        return {
            "calls": {n: [self.calls[n], self.total[n], self.self_time[n]] for n in sorted(self.calls)},
            "edges": [[a, b, c, t] for (a, b), (c, t) in sorted(self.edges.items())],
        }


class _TracedIterator:
    """Times each step of an iterator a wrapped call returned.

    Steps of the outermost enumeration (``iter_mapping_batches`` or
    ``elements``) also count the group elements they yield: one per element,
    or the row count of a batch of permutation images.
    """

    def __init__(self, tracer, name, cat, inner):
        self.tracer, self.name, self.cat, self.inner = tracer, name, cat, inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        outermost = self.cat == "enum" and tracer.cat_depth["enum"] == 0
        tracer._enter(self.name, self.cat)
        t0 = tracer.clock()
        try:
            item = next(self.inner)
        finally:
            tracer._leave(self.name, self.cat, tracer.clock() - t0)
        if outermost:
            shape = getattr(item, "shape", None)
            tracer.enum_elements += shape[0] if shape is not None and len(shape) == 2 else 1
        return item
