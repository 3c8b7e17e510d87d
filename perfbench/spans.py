"""Spans and counters recorded from outside the program under test.

The program's modules look their collaborators up as module globals at call
time (``metrics.py`` calls ``fit_probe``, ``expt.train`` calls
``objective_and_grad``), so replacing those globals with timing wrappers
records every call without changing a line of ``src/``.  ``Tracer.install``
replaces every ``dgdx.*`` module global that is the original function and
``Tracer.uninstall`` puts each original back.

A span is ``(name, start, end, parent)``.  A layer's self time is its span's
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time

_WRAPPED = "__perfbench_original__"

# (module, function, span name); several functions may share one span name
SPANNED = (
    ("core", "load_dump", "core.load_dump"),
    ("core", "save_dump", "core.save_dump"),
    ("core", "validate_no_label_shift", "core.validate_no_label_shift"),
    ("probe", "fit_probe", "probe.fit_probe"),
    ("probe", "zero_one_error", "probe.zero_one_error"),
    ("metrics", "diagnose", "metrics.diagnose"),
    ("metrics", "e0_prime", "metrics.e0_prime"),
    ("metrics", "e1_prime", "metrics.e1_prime"),
    ("metrics", "e2_prime", "metrics.e2_prime"),
    ("metrics", "e3_prime", "metrics.e3_prime"),
    ("metrics", "d0_prime", "metrics.d0_prime"),
    ("metrics", "d1_prime", "metrics.d1_prime"),
    ("metrics", "d2_prime", "metrics.d2_prime"),
    ("expt", "make_dataset", "expt.make_dataset"),
    ("expt", "train", "expt.train"),
    ("expt", "objective_and_grad", "expt.objective_and_grad"),
    ("expt", "export_representations", "expt.export_representations"),
    ("propositions", "random_instance", "propositions.instances"),
    ("propositions", "make_prop1_instance", "propositions.instances"),
    ("propositions", "make_prop2_instance", "propositions.instances"),
    ("propositions", "check_prop1", "propositions.check_prop1"),
    ("propositions", "check_prop2", "propositions.check_prop2"),
    ("propositions", "check_orderings", "propositions.check_orderings"),
    ("propositions", "check_partition_expectation", "propositions.check_partition_expectation"),
    ("scenarios", "generate", "scenarios.generate"),
    ("scenarios", "check_expectation", "scenarios.check_expectation"),
)

# called tens of thousands of times per operation: counted, not timed
COUNTED = (
    ("propositions", "eval_G", "propositions.eval_G"),
    ("propositions", "eval_F", "propositions.eval_F"),
)

CLI_SPAN = "cli.command"


def self_times(spans):
    """Per-name ``{"calls", "total_s", "self_s"}`` from a list of spans.

    ``spans[i] = (name, start, end, parent)`` where ``parent`` is the index
    of the enclosing span or None.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_s[i]
    return out


def covered_s(spans):
    """Wall time covered by top-level spans."""
    return sum(end - start for _, start, end, parent in spans if parent is None)


class Tracer:
    """Records spans and counters from the wrappers it installs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []
        self._installed = []  # (module, attribute, original)

    # -- recording -------------------------------------------------------------

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, fn, name, after=None):
        """A wrapper recording a span per call; ``after(args, kwargs, result)``
        may add counters."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(spanned, _WRAPPED, fn)
        return spanned

    def wrap_count(self, fn, name):
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        setattr(counted, _WRAPPED, fn)
        return counted

    def summary(self):
        return self_times([tuple(s) for s in self.spans])

    # -- installing into the program ---------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in _dgdx_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, after_hooks=None):
        """Wrap every ``dgdx.*`` module global bound to a traced function, and
        the callback of every CLI command."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        hooks = after_hooks or {}
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _dgdx_modules()}
        for mod, fn_name, span in SPANNED:
            original = getattr(mods[mod], fn_name)
            self._replace_everywhere(original, self.wrap(original, span, hooks.get(span)))
        for mod, fn_name, name in COUNTED:
            original = getattr(mods[mod], fn_name)
            self._replace_everywhere(original, self.wrap_count(original, name))
        for command in mods["cli"].main.commands.values():
            original = command.callback
            self._installed.append((command, "callback", original))
            command.callback = self.wrap(original, CLI_SPAN)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []


def _dgdx_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dgdx" or name.startswith("dgdx."))]


def wrapped_names():
    """Names of ``dgdx`` globals and CLI callbacks that are tracing wrappers now."""
    found = []
    for mod in _dgdx_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _WRAPPED):
                found.append(f"{mod.__name__}.{attr}")
    cli = sys.modules.get("dgdx.cli")
    if cli is not None:
        for cmd_name, command in cli.main.commands.items():
            if hasattr(command.callback, _WRAPPED):
                found.append(f"dgdx.cli.main.commands[{cmd_name!r}].callback")
    return found


def standard_hooks(tracer):
    """Counters read from the arguments and results of traced calls, by span."""

    def fit_probe(args, kwargs, result):
        record = result[1]
        tracer.add("probe.fit_probe.iterations", record.iterations)
        tracer.add("probe.fit_probe.points", record.n_points)
        tracer.add("probe.fit_probe.not_converged", 0 if record.converged else 1)

    def dump_bytes(key, position):
        def after(args, kwargs, result):
            path = kwargs["path"] if "path" in kwargs else args[position]
            tracer.add(key, os.path.getsize(path))
        return after

    return {
        "probe.fit_probe": fit_probe,
        "core.load_dump": dump_bytes("core.load_dump.bytes", 0),
        "core.save_dump": dump_bytes("core.save_dump.bytes", 1),
    }
