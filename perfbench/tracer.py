"""Outside-in tracing of steinlab's layer functions.

The tracer replaces every binding of each listed public function (module
attributes, names imported into other steinlab modules, and methods of
``DecomposableTarget``) with a wrapper that records a span: call count,
self time and total time.  Self time is the span's duration minus the
durations of its child spans on the same thread; every thread keeps its own
span stack.  Each task that ``parallel.ordered_map`` runs, inline or on a
pool thread, is a span of the layer that called ``ordered_map`` (``cli`` when
no traced function did), so ``ordered_map``'s own self time is the time it
waited for the pool.  Counters are summed from call arguments after
each call returns.  Nothing under ``src/`` changes.
"""

import os
import sys
import threading
from time import monotonic, perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_terms(pos, name):
    return lambda args, kwargs: ("models.term_evals", len(_arg(args, kwargs, pos, name)))


def _count_full(args, kwargs):
    return "models.term_evals", args[0].L


def _count_pairs(args, kwargs):
    return "discrepancy.pairs", _arg(args, kwargs, 0, "batch").n ** 2


def _count_steps(args, kwargs):
    return "samplers.steps", _arg(args, kwargs, 1, "config").steps


def _count_rounds(args, kwargs):
    return "svgd.rounds", _arg(args, kwargs, 2, "config").rounds


def _count_bytes(args, kwargs):
    return "io.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, counter).  A dotted attribute names a method of a
# class defined in the module; its span is reported under the method name.
LAYER_FUNCTIONS = (
    ("rng", "uniform_subsets", None),
    ("discrepancy", "draw_subsets", None),
    ("discrepancy", "scaled_scores", None),
    ("discrepancy", "coord_stein_sums", _count_pairs),
    ("discrepancy", "sksd", None),
    ("discrepancy", "ksd", None),
    ("kernels", "radial_profile", None),
    ("kernels", "median_heuristic_bandwidth", None),
    ("models", "DecomposableTarget.grad_log_subset", _count_terms(1, "sigma")),
    ("models", "DecomposableTarget.grad_log_full", _count_full),
    ("models", "DecomposableTarget.grad_log_terms", _count_terms(1, "indices")),
    ("samplers", "sgld_chain", _count_steps),
    ("samplers", "iid_gaussian", None),
    ("svgd", "ssvgd_direction", None),
    ("svgd", "run_ssvgd", _count_rounds),
    ("parallel", "ordered_map", None),
    ("io", "load_config", None),
    ("io", "read_samples_csv", None),
    ("io", "write_json", _count_bytes),
    ("io", "write_samples_csv", _count_bytes),
    ("io", "write_jsonl", _count_bytes),
    ("io", "write_table_csv", _count_bytes),
)

COUNTERS = (
    "models.term_evals",
    "discrepancy.pairs",
    "samplers.steps",
    "svgd.rounds",
    "io.bytes_written",
)

# The compute entry points whose first call ends a run's set-up phase.
COMPUTE_ENTRY_POINTS = (
    ("discrepancy", "sksd"),
    ("discrepancy", "ksd"),
    ("samplers", "sgld_chain"),
    ("svgd", "run_ssvgd"),
    ("samplers", "iid_gaussian"),
)


def span_name(module, attribute):
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


def replace_everywhere(module, attribute, make_wrapper):
    """Replace ``steinlab.<module>.<attribute>`` and every other binding of
    the same object in loaded steinlab modules.  Returns False when the
    attribute does not exist, so a rename shows up as missing."""
    owner = sys.modules.get(f"steinlab.{module}")
    if owner is None:
        return False
    *class_path, name = attribute.split(".")
    for part in class_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = getattr(owner, name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    if class_path:
        setattr(owner, name, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "steinlab" or mod_name.startswith("steinlab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


class FirstCallStamp:
    """Records ``time.monotonic()`` at the first call into a compute layer."""

    def __init__(self):
        self.stamp = None

    def wrap(self, fn):
        def stamped(*args, **kwargs):
            if self.stamp is None:
                self.stamp = monotonic()
            return fn(*args, **kwargs)

        stamped.__wrapped__ = fn
        return stamped

    def install(self):
        for module, attribute in COMPUTE_ENTRY_POINTS:
            if not replace_everywhere(module, attribute, self.wrap):
                raise RuntimeError(f"steinlab.{module}.{attribute} not found")


class Tracer:
    """Span statistics and counters for the functions in LAYER_FUNCTIONS."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self.spans = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.main_root_s = 0.0
        self.missing = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, args, kwargs, call):
        """Run ``fn`` as a span named ``name``; a task span (``call`` false)
        adds self time to its owner without counting a call."""
        stack = self._stack()
        entry = [name, 0.0]
        stack.append(entry)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                if not stack and threading.get_ident() == self._main:
                    self.main_root_s += duration
                stats = self.spans.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                )
                stats["self_s"] += duration - entry[1]
                if call:
                    stats["calls"] += 1
                    stats["total_s"] += duration

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if name == "parallel.ordered_map":
                # Tasks run inline or on pool threads; their own time belongs
                # to the layer that called ordered_map, not to the pool.
                stack = self._stack()
                owner = stack[-1][0] if stack else "cli"
                task = self._task(owner, _arg(args, kwargs, 0, "fn"))
                if args:
                    args = (task,) + args[1:]
                else:
                    kwargs = dict(kwargs, fn=task)
            result = self._span(name, fn, args, kwargs, call=True)
            if counter is not None:
                key, amount = counter(args, kwargs)
                with self._lock:
                    self.counters[key] += int(amount)
            return result

        traced.__wrapped__ = fn
        return traced

    def _task(self, owner, fn):
        return lambda item: self._span(owner, fn, (item,), {}, call=False)

    def install(self):
        for module, attribute, counter in LAYER_FUNCTIONS:
            name = span_name(module, attribute)
            found = replace_everywhere(
                module, attribute, lambda fn: self.wrap(name, fn, counter)
            )
            if not found:
                self.missing.append(name)

    def report(self):
        with self._lock:
            return {
                "spans": {k: dict(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "main_root_s": self.main_root_s,
                "missing": list(self.missing),
            }
