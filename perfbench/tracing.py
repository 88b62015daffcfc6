"""Span tracing of hnaufbau from outside the package.

``Tracer.install`` wraps every public function of each layer (the names in
each module's ``__all__``) and rebinds every hnaufbau module attribute that
points at an original, so calls made through names imported elsewhere
(``cli.build_spectrum``, ``verify.get_basis``) are traced too. Spans carry
their parent's id; the parent of a span opened in a ``ThreadPoolExecutor``
worker is the span that submitted the task. Spans stay in memory until
``summarize`` and ``write_spans`` run after the timed region.

A span's self time is its duration minus the part of its interval that its
child spans cover; concurrent children in worker threads are counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("lattice", "aufbau", "kernels", "fock", "observables", "numerics",
          "hardcore", "verify", "cli")

# kernel families reported as one self time each, whatever the statistics
KERNEL_GROUPS = {
    "enumerate": ("fermion_words", "boson_states", "fermion_occupations"),
    "config_energies": ("config_energies_fermion", "config_energies_boson"),
    "create": ("create_fermion", "create_boson"),
    "correlation": ("correlation_fermion", "correlation_boson"),
    "eig": ("balance_inplace", "hessenberg_inplace", "qr_eigvals"),
    "apply_bonds": ("apply_bonds_fermion", "apply_bonds_boson"),
    "dense_bonds": ("dense_bonds_fermion", "dense_bonds_boson"),
}


def _count_states(tracer, args, result):
    tracer.count("aufbau.states_built", len(result))


def _count_eigen(tracer, args, result):
    n = len(args[0])
    tracer.count("numerics.eigen_n3", n ** 3)
    tracer.count("numerics.eigenvalues.sweeps", getattr(result, "iterations", 0))


# counters read off a traced function's arguments and result
ON_RETURN = {
    "aufbau.build_spectrum": _count_states,
    "numerics.eigenvalues": _count_eigen,
}


class _Span:
    __slots__ = ("tracer", "name", "layer", "sid", "parent", "start", "stack")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.layer = name.split(".", 1)[0]

    def __enter__(self):
        tracer = self.tracer
        self.stack = stack = tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = next(tracer._ids)
        stack.append(self.sid)
        self.start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = self.tracer.clock()
        self.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, threading.get_ident(), self.start, end)
        )
        if exc_type is not None:
            self.tracer.count(f"{self.layer}.errors")
        return False


class Tracer:
    """In-memory span recorder; spans are (id, parent id, name, thread,
    start, end) tuples, parent id 0 meaning a root span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def wrap(self, name, fn, on_return=None):
        """fn inside a span called name; on_return(tracer, args, result) after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def executor_class(self, base):
        """Subclass of the executor base whose tasks run under the span that
        submitted them."""
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def task():
                    worker_stack = tracer._stack()
                    saved = worker_stack[:]
                    worker_stack[:] = [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        worker_stack[:] = saved

                return super().submit(task)

        return TracedExecutor

    def split_suites(self, run_checks, suites_all):
        """run_checks with one call, and one span, per suite. run_checks runs
        the selected suites in SUITES order, so the results are the same."""

        def traced_run_checks(g=0.5, t=1.0, suites=None, bond_transform=None):
            selected = suites_all if suites is None else tuple(suites)
            if any(s not in suites_all for s in selected):
                return run_checks(g=g, t=t, suites=suites, bond_transform=bond_transform)
            results = []
            with _Span(self, "verify.run_checks"):
                for name in suites_all:
                    if name in selected:
                        with _Span(self, f"verify.{name}"):
                            results.extend(run_checks(
                                g=g, t=t, suites=[name], bond_transform=bond_transform))
            return results

        return traced_run_checks

    def install(self):
        """Wrap the public functions of every layer and rebind their names in
        every loaded hnaufbau module."""
        mods = {layer: importlib.import_module(f"hnaufbau.{layer}") for layer in LAYERS}
        replace = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                # a generator's span would stay open across its consumer's calls
                if (not callable(obj) or isinstance(obj, type) or id(obj) in replace
                        or inspect.isgeneratorfunction(obj)):
                    continue
                qual = f"{layer}.{name}"
                replace[id(obj)] = (obj, self.wrap(qual, obj, ON_RETURN.get(qual)))
        verify = mods["verify"]
        replace[id(verify.run_checks)] = (
            verify.run_checks, self.split_suites(verify.run_checks, verify.SUITES))
        for modname, mod in list(sys.modules.items()):
            if modname != "hnaufbau" and not modname.startswith("hnaufbau."):
                continue
            for key, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, key, val))
                    setattr(mod, key, hit[1])
        cli = mods["cli"]
        if hasattr(cli, "ThreadPoolExecutor"):
            self._restore.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
            cli.ThreadPoolExecutor = self.executor_class(cli.ThreadPoolExecutor)

    def uninstall(self):
        while self._restore:
            mod, key, val = self._restore.pop()
            setattr(mod, key, val)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def union_length(intervals, lo, hi):
    """Length of the union of the (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    covered_to = lo
    for start, end in sorted(intervals):
        start = max(start, covered_to)
        end = min(end, hi)
        if end > start:
            total += end - start
            covered_to = end
    return total


def self_times(spans):
    """{span id: duration minus the time its children cover}."""
    children = defaultdict(list)
    for _sid, parent, _name, _thread, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _parent, _name, _thread, start, end in spans
    }


def summarize(tracer):
    """Per-function calls, total and self time; per-layer self time and
    errors; kernel-family self times; counters; the span count."""
    selfs = self_times(tracer.spans)
    per_fn = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _parent, name, _thread, start, end in tracer.spans:
        entry = per_fn[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += selfs[sid]
    metrics = {}
    for name, (calls, total, self_s) in sorted(per_fn.items()):
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = total
        metrics[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            entry[2] for name, entry in per_fn.items() if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.errors"] = tracer.counts.get(f"{layer}.errors", 0)
    for group, members in KERNEL_GROUPS.items():
        metrics[f"kernels.{group}.self_s"] = sum(
            per_fn[f"kernels.{m}"][2] for m in members if f"kernels.{m}" in per_fn)
    for key, val in tracer.counts.items():
        metrics.setdefault(key, val)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics
