"""Spans around the calls into each layer of ``discordant``, installed from
the benchmark's side (the package itself carries no instrumentation).

Several modules bind library functions by name (``from .measurement import
conditional_blocks``), so a wrapper replaces the function in every loaded
``discordant`` namespace that holds it. Spans are aggregated in memory per
name: calls, inclusive time (outermost span of that name only) and self time
(inclusive minus the time covered by traced child spans). Install only in a
traced run.
"""

from __future__ import annotations

import json
import sys
import threading
import time

# (module, attribute) pairs to wrap; the span name is "<module>.<attribute>".
TRACED_FUNCTIONS = [
    ("measurement", "basis_from_parameters"),
    ("measurement", "conditional_blocks"),
    ("correlations", "entropy_of_eigenvalues"),
    ("operator_core", "eig"),
    ("documents", "loads_document"),
    ("documents", "document_to_state"),
    ("discord", "optimize_discord"),
    ("discord", "discord_d3"),
    ("discord", "classify_zero_discord"),
    ("demon", "work_ledger"),
]


class _ThreadSpans:
    """One thread's open spans and totals (the optimizer's restart pool calls
    traced functions from worker threads)."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        self.stack: list[float] = []  # child seconds of each open span
        self.depth: dict[str, int] = {}


def _add(stats: dict, counters: dict, other: dict) -> None:
    for name, (calls, inclusive, self_s) in other["stats"].items():
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += inclusive
        entry[2] += self_s
    for name, value in other["counters"].items():
        counters[name] = counters.get(name, 0) + value


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._merged: list[dict] = []
        self._replaced: list[tuple] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def _enter(self, name: str) -> _ThreadSpans:
        spans = self._spans()
        spans.stack.append(0.0)
        spans.depth[name] = spans.depth.get(name, 0) + 1
        return spans

    @staticmethod
    def _exit(spans: _ThreadSpans, name: str, duration: float) -> None:
        children = spans.stack.pop()
        depth = spans.depth[name] = spans.depth[name] - 1
        entry = spans.stats.get(name)
        if entry is None:
            entry = spans.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        if depth == 0:
            entry[1] += duration
        entry[2] += duration - children
        if spans.stack:
            spans.stack[-1] += duration

    def active(self, name: str) -> bool:
        return self._spans().depth.get(name, 0) > 0

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._spans().counters
        counters[name] = counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span named ``name``; also used for the benchmark's own
        span around the CLI entry point (cli.analyze)."""
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before()
            spans = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(spans, name, clock() - start)
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _before_optimize(self) -> None:
        # Searches started inside work_ledger belong to the demon layer's count.
        if self.active("demon.work_ledger"):
            self.count("demon.optimize_calls")

    def _after_optimize(self, report) -> None:
        self.count("discord.function_evaluations", report.diagnostics.function_evaluations)
        self.count("discord.unconverged_reports", 0 if report.diagnostics.converged else 1)

    def install(self) -> None:
        """Wrap every traced function in every loaded discordant namespace."""
        hooks = {"discord.optimize_discord": (self._before_optimize, self._after_optimize)}
        modules = [m for key, m in sys.modules.items() if key == "discordant" or key.startswith("discordant.")]
        for module_name, attribute in TRACED_FUNCTIONS:
            name = f"{module_name}.{attribute}"
            original = getattr(sys.modules[f"discordant.{module_name}"], attribute)
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapped)
                    self._replaced.append((module, attribute, original))
        state_class = sys.modules["discordant.states"].BipartiteState
        self._replaced.append((state_class, "__init__", state_class.__init__))
        state_class.__init__ = self.wrap("states.BipartiteState", state_class.__init__)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._replaced):
            setattr(owner, attribute, original)
        self._replaced.clear()

    def merge(self, other: dict) -> None:
        """Add a dumped trace (from a traced CLI child) to this one."""
        self._merged.append(other)

    def dump(self) -> dict:
        """Totals over every thread and every merged trace."""
        stats: dict = {}
        counters: dict = {}
        with self._lock:
            parts = [{"stats": t.stats, "counters": t.counters} for t in self._threads]
        for part in parts + self._merged:
            _add(stats, counters, part)
        return {"stats": stats, "counters": counters}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle, indent=1, sort_keys=True)


def layer_metrics(trace: dict, import_s: float, import_scipy_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from a dumped trace. Times are
    inclusive and summed over threads."""
    stats, counters = trace["stats"], trace["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    optimize_s = inclusive("discord.optimize_discord")
    evaluations = counters.get("discord.function_evaluations", 0)
    values = {
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (import_scipy_s, "s"),
        "cli.analyze_s": (inclusive("cli.analyze"), "s"),
        "documents.calls": (calls("documents.loads_document") + calls("documents.document_to_state"), "count"),
        "documents.load_s": (inclusive("documents.loads_document") + inclusive("documents.document_to_state"), "s"),
        "states.bipartite_state_calls": (calls("states.BipartiteState"), "count"),
        "states.bipartite_state_s": (inclusive("states.BipartiteState"), "s"),
        "operator_core.eig_calls": (calls("operator_core.eig"), "count"),
        "operator_core.eig_s": (inclusive("operator_core.eig"), "s"),
        "measurement.basis_from_parameters_calls": (calls("measurement.basis_from_parameters"), "count"),
        "measurement.basis_from_parameters_s": (inclusive("measurement.basis_from_parameters"), "s"),
        "measurement.conditional_blocks_calls": (calls("measurement.conditional_blocks"), "count"),
        "measurement.conditional_blocks_s": (inclusive("measurement.conditional_blocks"), "s"),
        "correlations.entropy_of_eigenvalues_calls": (calls("correlations.entropy_of_eigenvalues"), "count"),
        "correlations.entropy_of_eigenvalues_s": (inclusive("correlations.entropy_of_eigenvalues"), "s"),
        "discord.optimize_calls": (calls("discord.optimize_discord"), "count"),
        "discord.optimize_s": (optimize_s, "s"),
        "discord.function_evaluations": (evaluations, "count"),
        "discord.evals_per_s": (evaluations / optimize_s if optimize_s else 0.0, "1/s"),
        "discord.unconverged_reports": (counters.get("discord.unconverged_reports", 0), "count"),
        "discord.d3_s": (inclusive("discord.discord_d3"), "s"),
        "discord.classify_s": (inclusive("discord.classify_zero_discord"), "s"),
        "demon.work_ledger_s": (inclusive("demon.work_ledger"), "s"),
        "demon.optimize_calls": (counters.get("demon.optimize_calls", 0), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
