"""Outside-in span tracing of the twostrain layers.

``Tracer.install()`` wraps every public function of the layer modules and
the public evaluator methods of ``IncidenceSpec``, then rebinds each wrapped
name in every ``twostrain`` module that holds it. The package imports with
``from .x import f``, so rebinding only the defining module would miss most
calls. Install it only in a process that measures per-layer numbers.

Each call of a wrapped function is a span: name, start, end, parent span and
the item it belongs to. A span's self time is its duration minus the time
its child spans cover. Functions in ``HOT`` run thousands of times per item;
they are summed into their nearest recorded ancestor (calls and busy time)
instead of being recorded one span each. A hot entry's busy time includes
the hot calls made inside it, which are listed beside it.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("incidence", "model", "equilibria", "stability", "simulate", "analysis", "benchmarks")

HOT = frozenset(
    {
        "incidence.rate",
        "incidence.force",
        "incidence.contact_factor",
        "incidence.d_rate_dS",
        "incidence.d_rate_dI",
        "model.field_components",
        "model.residual",
        "model.vector_field",
        "equilibria.strain1_balance",
        "equilibria.strain2_balance",
        "equilibria.strain2_coordinates",
        "equilibria.coexistence_coordinates",
    }
)

# span fields
NAME, PARENT, ITEM, START, END, SELF, AGG = range(7)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.item = -1
        self.spans = []  # [name, parent, item, start, end, self_s, {hot name: [calls, busy_s]}]
        self.root_hot = {}  # hot calls made outside any recorded span
        self.stack = []  # frames: [name, start, child_s, owner span, hot]
        self.active = {}  # name -> frames of that name on the stack
        self.stats = {}  # name -> [calls, busy_s, self_s, errors]
        self.counts = {}
        self.example = None

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("twostrain." + layer)
            for attr, fn in vars(mod).items():
                if _public_function(attr, fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer + "." + attr, fn)
        spec = importlib.import_module("twostrain.incidence").IncidenceSpec
        for attr, fn in list(vars(spec).items()):
            if _public_function(attr, fn):
                setattr(spec, attr, self._wrap("incidence." + attr, fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "twostrain" or modname.startswith("twostrain."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])

    def _wrap(self, name, fn):
        hot = name in HOT
        enter, leave, clock = self._enter, self._leave, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, hot, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, clock(), None, True)
                raise
            leave(frame, clock(), result, False)
            return result

        return traced

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, name, hot, args):
        active = self.active
        active[name] = active.get(name, 0) + 1
        owner = self.stack[-1][3] if self.stack else -1
        if hot:
            if name == "incidence.rate" and active.get("simulate.integrate") and not active.get(
                "model.field_norms"
            ):
                self._count("incidence.rate.calls_in_integrate")
        else:
            self.spans.append([name, owner, self.item, 0.0, 0.0, 0.0, {}])
            owner = len(self.spans) - 1
            if name == "benchmarks.reproduce":
                self.example = args[0]
            elif name == "simulate.integrate":
                if active.get("equilibria.solve_coexistence"):
                    self._count("equilibria.solve_coexistence.nested_integrate_calls")
                if active.get("benchmarks.reproduce"):
                    self._count("benchmarks.reproduce.integrate_calls")
                    self._count("benchmarks.reproduce.integrate_calls." + self.example)
            elif name in ("equilibria.solve_strain1", "equilibria.solve_strain2"):
                if active.get("equilibria.solve_coexistence"):
                    self._count("equilibria.solve_coexistence.nested_resolves")
        frame = [name, 0.0, 0.0, owner, hot]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame, end, result, error):
        name, start, child_s, owner, hot = frame
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        self.active[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[2] += dur - child_s
        if not self.active[name]:  # nested calls of one name count once in busy time
            st[1] += dur
        if error:
            st[3] += 1
        if hot:
            agg = self.spans[owner][AGG] if owner >= 0 else self.root_hot
            entry = agg.get(name)
            if entry is None:
                entry = agg[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += dur
            return
        span = self.spans[owner]
        span[START], span[END], span[SELF] = start - self.t0, end - self.t0, dur - child_s
        if error:
            return
        if name == "simulate.integrate":
            self._count("simulate.integrate.accepted_steps", len(result.times) - 1)
        elif name == "equilibria.solve_coexistence" and result is not None:
            self._count("equilibria.solve_coexistence.found")

    def totals(self) -> dict:
        """Running per-layer totals by metric name: counts are ints, times
        (names ending in ``_s``) are seconds."""
        out = dict(self.counts)
        for name, (calls, busy, self_s, errors) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".busy_s"] = busy
            out[name + ".self_s"] = self_s
            out[name + ".errors"] = errors
        return out

    def write(self, path, meta: dict):
        """Write the span tree as JSON; times are seconds since install."""
        spans = [
            {
                "id": i,
                "name": s[NAME],
                "parent": s[PARENT],
                "item": s[ITEM],
                "start": s[START],
                "end": s[END],
                "self_s": s[SELF],
                "hot": {k: {"calls": c, "busy_s": b} for k, (c, b) in s[AGG].items()},
            }
            for i, s in enumerate(self.spans)
        ]
        root_hot = {k: {"calls": c, "busy_s": b} for k, (c, b) in self.root_hot.items()}
        with open(path, "w") as fh:
            json.dump(dict(meta, spans=spans, root_hot=root_hot), fh)


def derive(totals: dict) -> dict:
    """``totals`` (or a difference of two) plus the ratios built from it."""
    out = dict(totals)
    steps = out.get("simulate.integrate.accepted_steps", 0)
    out["simulate.integrate.us_per_step"] = (
        1e6 * out["simulate.integrate.busy_s"] / steps if steps else 0.0
    )
    out["incidence.rate.calls_per_step"] = (
        out.get("incidence.rate.calls_in_integrate", 0) / steps if steps else 0.0
    )
    solves = out.get("equilibria.solve_coexistence.calls", 0)
    out["equilibria.solve_coexistence.found_frac"] = (
        out.get("equilibria.solve_coexistence.found", 0) / solves if solves else 0.0
    )
    return out


def _public_function(attr, obj) -> bool:
    return inspect.isfunction(obj) and not attr.startswith("_")
