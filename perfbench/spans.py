"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the ``katolab`` modules from the
benchmark's own files: every module namespace that binds a function gets the
wrapper (``factorize`` is bound in ``words``, ``invariants``, ``dynamics``,
``cli`` and the package), and methods are replaced on their class.  Spans
(name, start, end, parent, op, error) stay in memory and are written out once
the run ends; self time is computed from them afterwards.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import Counter
from time import perf_counter_ns

# (module, qualified name, kind).  "span" records a timed span, "count" only
# counts calls (hot arithmetic whose time belongs to the caller), "guard"
# also tracks bit lengths and raised limits, "vars" also sums len(variables).
TARGETS = (
    ("words", "factorize", "span"),
    ("words", "standard_form", "span"),
    ("words", "type_of", "span"),
    ("words", "positivity_power", "span"),
    ("intmat", "hermite_normal_form", "span"),
    ("intmat", "IntMatrix.rank", "span"),
    ("intmat", "IntMatrix.det", "span"),
    ("intmat", "IntMatrix.inverse_unimodular", "span"),
    ("intmat", "lattice_index", "span"),
    ("intmat", "left_fixed_lattice", "span"),
    ("intmat", "IntMatrix.__mul__", "count"),
    ("invariants", "build_report", "span"),
    ("invariants", "theta_lattice", "span"),
    ("invariants", "multiplicity_one", "span"),
    ("dynamics", "perron_data", "span"),
    ("dynamics", "eval_map", "span"),
    ("dynamics", "eval_inverse", "span"),
    ("dynamics", "certify_ball12_contraction", "span"),
    ("dynamics", "stable_membership", "span"),
    ("dynamics", "fundamental_domain_membership", "span"),
    ("dynamics", "sample_ball_points", "span"),
    ("gaussrat", "GaussianRational.__mul__", "count"),
    ("gaussrat", "sq_norm", "span"),
    ("gaussrat", "sq_norm_12", "span"),
    ("_limits", "guard_int", "guard"),
    ("formats", "parse_matrix", "span"),
    ("fields", "tangent_field_nullity", "span"),
    ("fields", "one_form_nullity", "span"),
    ("fields", "standard_field_generators", "span"),
    ("fields", "pushforward_invariance", "span"),
    ("laurent", "SparseLaurentPoly.substitute_map", "span"),
    ("laurent", "SparseLaurentPoly.__mul__", "count"),
    ("linsys", "system_rank", "vars"),
)


def metric_prefix(module: str, qualname: str) -> str:
    return f"{module.lstrip('_')}.{qualname}"


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op, error)
        self.counters: Counter = Counter()
        self.max_bits = 0
        self.op = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            error = None
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op, error))

        return wrapper

    def _count(self, name: str, fn):
        key = f"{name}.calls"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _guard(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(value, *args, **kwargs):
            counters[f"{name}.calls"] += 1
            bits = value.bit_length()
            if bits > self.max_bits:
                self.max_bits = bits
            try:
                return fn(value, *args, **kwargs)
            except BaseException:
                counters[f"{name}.raised"] += 1
                raise

        return wrapper

    def _make(self, name: str, kind: str, fn):
        if kind == "span":
            return self._span(name, fn)
        if kind == "count":
            return self._count(name, fn)
        if kind == "guard":
            return self._guard(name, fn)
        if kind == "vars":
            counters = self.counters

            def on_call(args):
                counters[f"{name}.vars"] += len(args[0])

            return self._span(name, fn, on_call)
        raise ValueError(f"unknown target kind {kind!r}")

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every namespace of ``package`` that binds it."""
        modules = [package]
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":  # importing it runs the command line
                continue
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
        for module_name, qualname, kind in TARGETS:
            home = importlib.import_module(f"{package.__name__}.{module_name}")
            name = metric_prefix(module_name, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._make(name, kind, original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._restore.append((cls, key, original))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(home, qualname)
            wrapper = self._make(name, kind, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counters": dict(self.counters), "max_bits": self.max_bits},
                fh,
            )


# -- analysis ------------------------------------------------------------------------


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the part of ``[start, end]`` covered by ``intervals``."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans) -> dict[str, int]:
    """Per span name, summed duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Counter = Counter()
    for sid, name, start, end, _, _, _ in spans:
        out[name] += (end - start) - covered_ns(start, end, children.get(sid, ()))
    return dict(out)


def layer_metrics(rec: Recorder, valid_ops) -> dict[str, float]:
    """Per-layer metric values named ``<module>.<function>.<calls|self_ms|...>``."""
    calls: Counter = Counter()
    factorize_in_valid = 0
    for _, name, _, _, _, op, _ in rec.spans:
        calls[name] += 1
        if name == "words.factorize" and op in valid_ops:
            factorize_in_valid += 1
    selfs = self_times(rec.spans)
    out: dict[str, float] = {}
    for module_name, qualname, kind in TARGETS:
        name = metric_prefix(module_name, qualname)
        if kind == "span" or kind == "vars":
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = selfs.get(name, 0) / 1e6
        if kind == "vars":
            out[f"{name}.vars"] = rec.counters[f"{name}.vars"]
        if kind == "count":
            out[f"{name}.calls"] = rec.counters[f"{name}.calls"]
        if kind == "guard":
            out[f"{name}.calls"] = rec.counters[f"{name}.calls"]
    out.update(failure_metrics(rec))
    out["limits.max_bits"] = rec.max_bits
    out["words.factorize.calls_per_op"] = factorize_in_valid / len(valid_ops) if valid_ops else 0.0
    return out


def failure_metrics(rec: Recorder) -> dict[str, int]:
    """The two layer counters of katolab's known failures: Perron calls that raised, guards that raised."""
    failed = sum(1 for s in rec.spans if s[1] == "dynamics.perron_data" and s[6] is not None)
    return {"dynamics.perron_data.failed": failed, "limits.guard_int.raised": rec.counters["limits.guard_int.raised"]}
