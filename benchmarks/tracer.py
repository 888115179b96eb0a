"""Outside-in tracer: spans and counts around the package's public functions.

``Tracer.install`` replaces each public function of each ``diagnoscope``
module with a wrapper, at every name the function is bound to: module
globals (``posterior_table`` is imported by name into ``strategies``,
``decision`` and ``cli``), the package namespace, and the dicts and tuples
that hold direct references (``cli._STRATEGY_RUNNERS``,
``strategies._RUNNERS``). ``uninstall`` puts the originals back.

A span is ``(name, start_ns, end_ns, parent)``; spans stay in memory and
are written out once, at the end. A function's self time is its spans'
durations minus the time its direct child spans cover.

Functions called once per posterior-table row or per formula node are
left unwrapped, because a wrapper there would dominate the run; their cost
stays in their callers' self time. The one exception is a count-only
wrapper on ``logic.satisfies_observations`` as bound in ``logic`` itself:
it counts the candidates the minimal-diagnosis searches check, while the
per-row calls from ``probability`` (a separate binding) stay unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

# Per-row or per-node hot paths, left unwrapped (see the module docstring).
UNWRAPPED = {
    "probability.joint_prior",
    "logic.evaluate_formula",
    "logic.satisfies_facts",
    "logic.satisfies_observations",
    "decision.state_utility",
    "model.enumerate_interpretations",
    "model.interpretation_at",
    "model.index_of_assignment",
}
UNWRAPPED_MODULES = {"formulas", "errors"}
HOOK_SPAN = "trace.hooks"


def _count_table(tracer: "Tracer", table) -> None:
    tracer.counts["probability.rows_enumerated"] += len(table.entries)
    tracer.counts["probability.rows_possible"] += sum(1 for e in table.entries if e.posterior > 0.0)


def _count_diagnoses(tracer: "Tracer", diagnoses) -> None:
    tracer.counts["logic.diagnoses_returned"] += len(diagnoses)


def _count_failures(tracer: "Tracer", report) -> None:
    tracer.counts["strategies.failures"] += len(report.failures)


RESULT_HOOKS = {
    "probability.posterior_table": _count_table,
    "logic.consistency_diagnoses": _count_diagnoses,
    "logic.abductive_explanations": _count_diagnoses,
    "strategies.compare_strategies": _count_failures,
}


def _package_modules():
    package = importlib.import_module("diagnoscope")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":  # importing it would run the command line
            modules.append(importlib.import_module(f"diagnoscope.{info.name}"))
    return modules


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._originals: dict[int, tuple[str, object]] = {}  # id(original) -> (name, original)
        self._bindings: list[tuple[object, object, object]] = []  # (holder, key, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0, 0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, result)
                spans.append((HOOK_SPAN, end, clock(), parent))
            return result

        return wrapper

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        replacements: dict[int, object] = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            if short in UNWRAPPED_MODULES:
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                self._originals[id(fn)] = (name, fn)
                replacements[id(fn)] = self._span_wrapper(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                self._rebind(module, attr, value, replacements)
        logic = importlib.import_module("diagnoscope.logic")
        original = logic.satisfies_observations
        logic.satisfies_observations = self._count_wrapper("logic.candidates_checked", original)
        self._bindings.append((logic, "satisfies_observations", original))
        self._verify(modules)

    def _rebind(self, module, attr: str, value, replacements: dict[int, object]) -> None:
        if id(value) in replacements and self._originals[id(value)][1] is value:
            setattr(module, attr, replacements[id(value)])
            self._bindings.append((module, attr, value))
        elif isinstance(value, dict):
            for key, item in list(value.items()):
                if id(item) in replacements and self._originals[id(item)][1] is item:
                    value[key] = replacements[id(item)]
                    self._bindings.append((value, key, item))
        elif isinstance(value, tuple) and _holds_any(value, self._originals):
            setattr(module, attr, _replace_in(value, replacements, self._originals))
            self._bindings.append((module, attr, value))

    def _verify(self, modules) -> None:
        """Fail loudly if any binding of a wrapped function was missed."""
        for module in modules:
            for attr, value in vars(module).items():
                holders = [value] + (list(value.values()) if isinstance(value, dict) else [])
                if any(_holds_any(h, self._originals) for h in holders):
                    raise RuntimeError(f"unwrapped reference left at {module.__name__}.{attr}")

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._bindings):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._bindings.clear()

    # -- results ----------------------------------------------------------

    def self_times_ns(self) -> dict[str, int]:
        child_total = defaultdict(int)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - child_total[index]
        return dict(out)

    def calls(self) -> Counter[str]:
        return Counter(name for name, *_ in self.spans)

    def write_spans(self, path) -> None:
        """One JSON object per span; ``query`` is the index of the root
        span (the ``cli.run_cli`` call) that the span belongs to."""
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                roots.append(index if parent < 0 else roots[parent])
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "query": roots[index]}
                handle.write(json.dumps(record) + "\n")


def _holds_any(value, originals: dict[int, tuple[str, object]]) -> bool:
    if id(value) in originals and originals[id(value)][1] is value:
        return True
    if isinstance(value, tuple):
        return any(_holds_any(item, originals) for item in value)
    return False


def _replace_in(value, replacements, originals):
    if id(value) in originals and originals[id(value)][1] is value:
        return replacements[id(value)]
    if isinstance(value, tuple):
        return tuple(_replace_in(item, replacements, originals) for item in value)
    return value
