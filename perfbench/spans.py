"""Wrap corebench functions from outside the program, for the benchmark only.

Two uses share one patching routine:

* ``FirstCall`` notes the clock at the first construction call and then
  removes itself, so the untimed part of a run (set-up) ends where the
  first coreset construction starts and the rest of the run is unwrapped.
* ``Recorder`` keeps, per layer span, the call count and the self
  seconds (span time minus the time of spans opened inside it).

Functions are patched at every namespace that holds them: ``bench`` and
``models`` import ``build_problem``, ``relative_error``, ``laplace`` and
others by name, so patching only the defining module would miss their
calls. A target that no longer exists is reported as absent; it does not
stop the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "corebench"

# span name -> (defining module, attribute path)
TARGETS = {
    "giga.run": ("corebench.giga", "run"),
    "giga.select": ("corebench.giga", "select"),
    "giga.step_size": ("corebench.giga", "step_size"),
    "giga.update": ("corebench.giga", "update"),
    "giga.finalize": ("corebench.giga", "finalize"),
    "baselines.fw": ("corebench.baselines", "fw_coreset"),
    "baselines.is": ("corebench.baselines", "is_coreset"),
    "baselines.rnd": ("corebench.baselines", "rnd_coreset"),
    "baselines.sampling_sweep": ("corebench.baselines", "sampling_sweep"),
    "hilbert.build_problem": ("corebench.hilbert", "build_problem"),
    "hilbert.relative_error": ("corebench.hilbert", "relative_error"),
    "hilbert.weightvector": ("corebench.hilbert", "WeightVector.__post_init__"),
    "models.laplace": ("corebench.models", "laplace"),
    "models.project": ("corebench.models", "project"),
    "models.gaussian_embed": ("corebench.models", "gaussian_embed"),
    "models.posterior_var": ("corebench.models", "coreset_posterior_variance"),
    "bench.csv": ("corebench.bench", "write_csv"),
}

# calls that start a coreset construction; the first one ends set-up
CONSTRUCTIONS = ("giga.run", "baselines.fw", "baselines.is", "baselines.rnd",
                 "baselines.sampling_sweep")


def _resolve(module_name: str, path: str):
    """Return (owner, current value) of a target, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, value)


def patch(names, make_wrapper):
    """Replace each named target wherever the package holds it.

    Returns (absent target names, undo function). A class attribute is
    patched on its class; a module-level function is replaced in every
    loaded ``corebench`` module whose namespace refers to it.
    """
    absent, undo = [], []
    for name in names:
        found = _resolve(*TARGETS[name])
        if found is None:
            absent.append(name)
            continue
        owner, original = found
        wrapper = make_wrapper(name, original)
        sites = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapper)
                    undo.append((site, key, original))

    def restore():
        for site, key, original in undo:
            setattr(site, key, original)
        undo.clear()

    return absent, restore


class FirstCall:
    """Clock readings at the first construction call; unpatches itself then."""

    def __init__(self):
        self.wall = None
        self.cpu = None
        self.absent, self._restore = patch(CONSTRUCTIONS, self._wrap)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.wall is None:
                self.wall = time.monotonic()
                self.cpu = time.process_time()
                self._restore()
            return fn(*args, **kwargs)
        return wrapper


class Recorder:
    """Per-span call counts and self seconds, plus a few work counts
    read from construction diagnostics. One trial thread is assumed, so one
    stack of open spans suffices."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.notes = []
        self._child_time = []        # per open span: seconds of its children
        self.absent, _ = patch(TARGETS, self.wrap)

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._child_time
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - children
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def note(self, message: str):
        if message not in self.notes:
            self.notes.append(message)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "notes": list(self.notes),
        }


def _budget(args, kwargs):
    return kwargs.get("M", args[1] if len(args) > 1 else None)


def _observe_giga(rec: Recorder, args, kwargs, result):
    diag = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    steps = getattr(diag, "traces", None)
    budget = _budget(args, kwargs)
    if steps is None or budget is None:
        rec.note("giga.run: no (weights, diag) with diag.traces and budget M")
        return
    rec.counts["giga.useful_steps"] += len(steps)
    rec.counts["giga.budget"] += budget
    rec.counts["giga.converged"] += getattr(diag, "stop_reason", None) == "converged"


def _observe_fw(rec: Recorder, args, kwargs, result):
    diag = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    selected = getattr(diag, "selected", None)
    if selected is None:
        rec.note("baselines.fw: no (weights, diag) with diag.selected")
        return
    rec.counts["fw.steps"] += len(selected)


_OBSERVERS = {"giga.run": _observe_giga, "baselines.fw": _observe_fw}
