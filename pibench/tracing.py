"""Outside-in tracing of the pisupport layers.

The tracer wraps public functions of the package where they live and in
every package module that imported them by name (``support`` binds
``int_rank`` and ``int_matpow`` directly, ``reps`` and ``pipoints`` bind
``embed``), so calls are caught whichever binding the caller uses.  Each
call becomes a span (id, parent id, name, start, end) kept in memory; self
time is a span's duration minus the time covered by its child spans.
Nothing in the package is edited: ``install`` patches module attributes and
``uninstall`` puts the originals back.
"""

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, layer group, counter hook name or None)
TARGETS = (
    ("linalg", "int_rank", "linalg.int_rank", "matrix_arg"),
    ("linalg", "int_matpow", "linalg.int_matpow", None),
    ("linalg", "coeff_array", "linalg.boxing", "boxed_arg"),
    ("linalg", "to_block_int", "linalg.boxing", None),
    ("linalg", "from_block_int", "linalg.boxing", "boxed_shape"),
    ("linalg", "kron", "linalg.kron", "matrix_result"),
    ("linalg", "rank", "linalg.rank", None),
    ("reps", "hom", "reps.hom", None),
    ("reps", "tensor", "reps.tensor", None),
    ("reps", "validate", "reps.validate", None),
    ("reps", "base_change", "reps.base_change", None),
    ("reps", "is_free", "reps.is_free", None),
    ("reps", "coinduced", "reps.coinduced", "module_result"),
    ("pipoints", "make_linear", "pipoints.certify", None),
    ("pipoints", "make_general", "pipoints.certify", None),
    ("pipoints", "base_extend", "pipoints.certify", None),
    ("pipoints", "restrict", "pipoints.restrict", None),
    ("fields", "embed", "fields.embed", None),
    ("randmod", "random_module", "randmod.random_module", None),
    ("support", "support_sample", "support.sample", None),
    ("support", "cosupport_sample", "support.sample", None),
    ("support", "generic_in_support", "support.generic", None),
    ("support", "support_ideal", "support.ideal", None),
)
MINORS = ("linalg", "minors", "linalg.minors")
SUITES = ("dade", "tensor", "hom", "endo", "flat", "perturb")

# extra work counters per group, reported next to calls and self time
_EXTRA_COUNTS = {
    "linalg.int_rank": ("entries",),
    "linalg.boxing": ("entries",),
    "linalg.kron": ("entries",),
    "reps.coinduced": ("out_dim",),
    "support.generic": ("points_visited",),
}
# int_rank calls made while a generic_in_support span is open
_GENERIC = "support.generic"


def package_modules():
    """The imported modules of the pisupport package."""
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "pisupport" or key.startswith("pisupport."))]


def _groups():
    seen = []
    for _, _, group, _ in TARGETS:
        if group not in seen:
            seen.append(group)
    return seen


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for group in _groups():
        specs.append((f"{group}.calls", "count", "lower"))
        specs.append((f"{group}.self_pct", "%", "lower"))
        for extra in _EXTRA_COUNTS.get(group, ()):
            specs.append((f"{group}.{extra}", "count", "lower"))
    group = MINORS[2]
    specs += [
        (f"{group}.visited", "count", "lower"),
        (f"{group}.nonzero", "count", "lower"),
        (f"{group}.self_pct", "%", "lower"),
        (f"{group}.useful_ratio", "ratio", "higher"),
    ]
    specs += [(f"verify.suite_pct.{name}", "%", "lower") for name in SUITES]
    specs += [
        ("trace.run_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.count_drift", "count", "lower"),
    ]
    return specs


class Tracer:
    """In-memory span recorder with per-group call counts and self time."""

    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.spans = []  # (id, parent id or None, name, start, end)
        self.dropped = 0
        self._stack = []  # [id, name, group, start, child seconds]
        self._next_id = 0
        self._open = Counter()  # group -> number of open spans
        self._patches = []
        # cumulative over every traced pass
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    # -- spans ----------------------------------------------------------------

    def _enter(self, name, group):
        span_id = self._next_id
        self._next_id += 1
        self._open[group] += 1
        self._stack.append([span_id, name, group, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, name, group, start, child = self._stack.pop()
        self._open[group] -= 1
        dur = end - start
        self.self_s[group] += dur - child
        self.calls[group] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (span_id, parent[0] if parent else None, name, start, end)
            )
        else:
            self.dropped += 1

    @contextmanager
    def root(self, label, group):
        """The root span of one job's call tree."""
        self._enter(label, group)
        try:
            yield
        finally:
            self._exit()

    # -- counter hooks ----------------------------------------------------------

    def _count(self, hook, group, args, result):
        if hook == "matrix_arg":
            rows, cols = args[0].shape
            self.counts[f"{group}.entries"] += rows * cols
            if self._open[_GENERIC]:
                self.counts[f"{_GENERIC}.points_visited"] += 1
        elif hook == "boxed_arg":
            self.counts[f"{group}.entries"] += args[0].rows * args[0].cols
        elif hook == "boxed_shape":
            self.counts[f"{group}.entries"] += args[2] * args[3]
        elif hook == "matrix_result":
            self.counts[f"{group}.entries"] += result.rows * result.cols
        elif hook == "module_result":
            self.counts[f"{group}.out_dim"] += result.n

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, group, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                tracer._count(hook, group, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_minors(self, fn, name, group):
        """minors() returns a lazy generator: time each step of it."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name, group)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer._exit()

            def steps():
                while True:
                    tracer._enter(name, group)
                    try:
                        minor = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counts[f"{group}.visited"] += 1
                    if not minor.is_zero():
                        tracer.counts[f"{group}.nonzero"] += 1
                    yield minor

            return steps()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------------

    def install(self):
        """Patch every package-module binding of each target function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = package_modules()
        for modname, fname, group, hook in TARGETS + (MINORS + (None,),):
            home = sys.modules[f"pisupport.{modname}"]
            original = getattr(home, fname)
            name = f"{modname}.{fname}"
            if (modname, fname) == MINORS[:2]:
                wrapper = self._wrap_minors(original, name, group)
            else:
                wrapper = self._wrap(original, name, group, hook)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def bindings(self):
        """Patched (module, attribute) pairs, for the trace file."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches)


def layer_metrics(tracer, traced_s, suite_s, passes):
    """Per-layer metrics of ``passes`` traced passes lasting ``traced_s``
    seconds in all; counts are per pass, times are shares of ``traced_s``."""
    out = {}
    for name, unit, _ in metric_specs():
        out[name] = {"value": 0, "unit": unit}
    share = 100.0 / traced_s
    for group in _groups() + [MINORS[2]]:
        out[f"{group}.self_pct"]["value"] = tracer.self_s.get(group, 0.0) * share
        if f"{group}.calls" in out:
            out[f"{group}.calls"]["value"] = tracer.calls.get(group, 0) // passes
    for key, value in tracer.counts.items():
        out[key]["value"] = value // passes
    visited = out["linalg.minors.visited"]["value"]
    if visited:
        out["linalg.minors.useful_ratio"]["value"] = (
            out["linalg.minors.nonzero"]["value"] / visited
        )
    for suite, seconds in suite_s.items():
        out[f"verify.suite_pct.{suite}"]["value"] = seconds * share
    return out


def cumulative_counts(tracer):
    """Exact work counts so far; the difference between two snapshots is
    the work of the passes in between."""
    counts = {f"{g}.calls": c for g, c in tracer.calls.items()}
    counts.update(tracer.counts)
    return dict(sorted(counts.items()))
