"""Per-layer tracing by rebinding gradedet's public entry points.

``Tracer.install`` replaces each traced function in every ``gradedet``
module that holds a reference to it (the defining module and every module
that imported the name), and each traced method on its class.  Timed
boundaries record spans on a stack, so a span's self time is its duration
minus the durations of the timed spans it caused; each (parent, child)
edge is aggregated too.  Count-only boundaries sit on the hot scalar,
grading and element-product entry points, where a clock read per call
would distort what it measures; they are not subtracted from their
parent's self time.  Each sweep function of ``gradedet.oracles.SUITES``
is a timed boundary too, reported by its inclusive time.  Everything
stays in memory until ``report``.  ``uninstall`` restores every original
binding.
"""

import importlib
import sys
import time

from gradedet.algebra import AlgebraElement
from gradedet.errors import Singular
from gradedet.grading import Bicharacter, GroupElement
from gradedet.oracles import SUITES

# span name -> (module, function names)
TIMED = {
    "gmatrix.j_sigma": ("gmatrix", ("j_sigma",)),
    "gmatrix.graded_trace": ("gmatrix", ("graded_trace",)),
    "gmatrix.matmul": ("gmatrix", ("matmul",)),
    "gmatrix.invert_matrix": ("gmatrix", ("invert_matrix",)),
    "gdet.gdet_sigma": ("gdet", ("gdet_sigma",)),
    "gdet.gdet0_leibniz": ("gdet", ("gdet0_leibniz",)),
    "gdet.det_of_commuting": ("gdet", ("det_of_commuting",)),
    "gdet.canonical_sigma": ("gdet", ("canonical_sigma",)),
    "berezinian.gber": ("berezinian", ("gber",)),
    "algebra.solve_linear": ("algebra", ("solve_linear",)),
    "algebra.make_algebra": ("algebra", ("make_algebra",)),
    "sampling.rand_invertible": ("sampling", ("rand_invertible",)),
    "serialize.parse": ("serialize", ("load_json", "parse_algebra",
                                      "parse_matrix", "parse_multiplier",
                                      "parse_preset")),
    "serialize.format": ("serialize", ("format_algebra", "format_matrix",
                                       "format_multiplier", "format_element",
                                       "result_doc")),
    "serialize.digest": ("serialize", ("digest", "digest_algebra",
                                       "digest_matrix", "digest_multiplier")),
    "cli.main": ("cli", ("main",)),
}

# count name -> (module, function name) or (class, method name)
COUNTED = {
    "scalars.mul": ("scalars", "mul"),
    "scalars.inv": ("scalars", "inv"),
    "scalars.cyclo": ("scalars", "cyclo"),
    "grading.element": (GroupElement, "__init__"),
    "grading.value": (Bicharacter, "value"),
    "algebra.element_mul": (AlgebraElement, "__mul__"),
}

# span name -> sweep function name; reported as inclusive seconds
SWEEPS = {f"oracles.{fn.__name__}": fn.__name__
          for fns in SUITES.values() for fn in fns}

# Event counts behind two ratios.  The counts are reported, since a count
# of 0 on a workload that never reaches the layer reads correctly where a
# ratio of 0/0 would not; ``ratios`` gives the ratios where they exist.
EVENTS = ("sampling.invert.attempts", "sampling.invert.rejected",
          "algebra.twist.calls", "algebra.twist.hits")


def metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in EVENTS:
        units[name] = "count"
    for name in SWEEPS:
        units[f"{name}.s"] = "s"
    return units


def _layer(name):
    return importlib.import_module(f"gradedet.{name}")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gradedet"
                                  or name.startswith("gradedet."))]


class Tracer:
    def __init__(self):
        self.stats = {}      # span name -> [calls, self s, total s]
        self.edges = {}      # (parent, child) -> [calls, total seconds]
        self.counts = {name: [0] for name in COUNTED}
        self.invert_attempts = [0, 0]   # from sampling: [attempts, rejected]
        self.twist_calls = [0, 0]       # [calls, cache hits]
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn):
        stack, edges = self._stack, self.edges
        clock = time.perf_counter
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])

        def span(*args, **kwargs):
            frame = [clock(), 0.0, name]    # start, child time, span name
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                agg[0] += 1
                agg[1] += dur - frame[1]
                agg[2] += dur
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur

        span.__wrapped__ = fn
        return span

    def counted(self, name, fn):
        cell = self.counts[name]

        def count(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        count.__wrapped__ = fn
        return count

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper, modules=None):
        for mod in modules or _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for name, (owner, attr) in COUNTED.items():
            if isinstance(owner, str):
                fn = getattr(_layer(owner), attr)
                self._rebind(fn, self.counted(name, fn))
            else:
                self._patch(owner, attr,
                            self.counted(name, owner.__dict__[attr]))
        for name, (module, attrs) in TIMED.items():
            for attr in attrs:
                fn = getattr(_layer(module), attr)
                self._rebind(fn, self.timed(name, fn))
        oracles = _layer("oracles")
        for name, attr in SWEEPS.items():
            fn = getattr(oracles, attr)
            self._rebind(fn, self.timed(name, fn))
        self._install_events()
        return self

    def _install_events(self):
        sampling = _layer("sampling")
        invert = sampling.invert_matrix      # already the timed wrapper
        attempts = self.invert_attempts

        def sampled_invert(*args, **kwargs):
            attempts[0] += 1
            try:
                return invert(*args, **kwargs)
            except Singular:                # the draw is rejected
                attempts[1] += 1
                raise

        self._rebind(invert, sampled_invert, modules=[sampling])

        twist = _layer("algebra").twist
        made = self.stats["algebra.make_algebra"]
        twists = self.twist_calls

        def counted_twist(*args, **kwargs):
            before = made[0]
            out = twist(*args, **kwargs)
            twists[0] += 1
            if made[0] == before:
                twists[1] += 1
            return out

        self._rebind(twist, counted_twist)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def report(self):
        """Per-layer metric values keyed as in ``metric_units``."""
        out = {}
        for name in TIMED:
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        out["sampling.invert.attempts"] = self.invert_attempts[0]
        out["sampling.invert.rejected"] = self.invert_attempts[1]
        out["algebra.twist.calls"] = self.twist_calls[0]
        out["algebra.twist.hits"] = self.twist_calls[1]
        for name in SWEEPS:
            out[f"{name}.s"] = self.total_s(name)
        return out

    def ratios(self):
        """sampling.invert.accept_ratio (non-singular results over
        inversions attempted from sampling) and algebra.twist.hit_ratio,
        each only when there was an attempt."""
        out = {}
        attempts, rejected = self.invert_attempts
        if attempts:
            out["sampling.invert.accept_ratio"] = 1 - rejected / attempts
        calls, hits = self.twist_calls
        if calls:
            out["algebra.twist.hit_ratio"] = hits / calls
        return out

    def total_s(self, name):
        """Inclusive seconds spent in the spans of one name."""
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge_list(self):
        return [{"parent": p, "child": c, "calls": v[0], "total_s": v[1]}
                for (p, c), v in sorted(self.edges.items(),
                                        key=lambda kv: -kv[1][1])]
