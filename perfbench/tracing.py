"""In-memory span tracing around the public functions of each package layer.

A layer is one module of the package.  Tracing replaces each public
function defined in a layer's own file with a wrapper, in every
``gridcoreset`` module that holds a reference to it (the package root, the
defining module and every importer), so ``solve_assignment`` sees a traced
``build_transport`` and ``solver``, ``model`` and ``diagrams`` all see a
traced ``coords_array``.  Nothing under ``src/`` changes; uninstalling puts
the original functions back.

Spans are kept in memory as (name, start, end, parent, op) and are recorded
only while an operation is open, so the benchmark's own checks, which run
between operations, never show up in a layer's time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Package modules measured as layers.  `oracle` is a test reference that no
# user path calls, so it is deliberately left unwrapped.
LAYERS = ("solver", "coreset", "model", "grid", "diagrams", "cli")


def _norms_label(args, kwargs) -> str:
    # cost_sites(C, sites, rho, norms=None): split isotropic from anisotropic.
    norms = kwargs.get("norms", args[3] if len(args) > 3 else None)
    return "model.cost_sites" if norms is None else "model.cost_sites_aniso"


def _solve_counts(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["solver.pivots"] += result.pivots
    tracer.counts["solver.points"] += result.clustering.n
    tracer.counts["solver.exact"] += int(result.exact)
    tracer.counts["solver.fractional"] += result.fractional_count


def _cost_counts(tracer: "Tracer", args, kwargs, result) -> None:
    clustering = args[0] if args else kwargs["C"]
    tracer.counts["model.cost_entries"] += int(clustering.rows.size)


# Span-name overrides and result counters at particular layer boundaries.
LABELS = {"model.cost_sites": _norms_label}
ON_RESULT = {"solver.solve_assignment": _solve_counts,
             "model.cost_sites": _cost_counts}


class Tracer:
    """Span recorder shared by all wrappers of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        """Open the root span of one operation; layer spans nest under it."""
        self._op = op_id
        self._stack = [self._open(name)]
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self._close(self._stack.pop(), self._op_start)
        self._op = -1

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to measure a later stretch of spans and counts from."""
        return len(self.spans), dict(self.counts)

    def since(self, mark) -> dict[str, float]:
        """Per-layer metrics of everything recorded after mark."""
        first, counts_then = mark
        counts = {name: value - counts_then.get(name, 0)
                  for name, value in self.counts.items()}
        return layer_metrics(self.totals(first), counts)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        return len(self.spans) - 1

    def _close(self, idx: int, start: float) -> None:
        name, _, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn):
        label = LABELS.get(name)
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self._open(label(args, kwargs) if label else name)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(idx, start)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions wherever the package refers to them."""
        package = "gridcoreset"
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(module, attr, wrapped[id(value)][1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self, first_span: int = 0) -> list[float]:
        """Self time of each span from first_span on.

        A span's self time is its duration minus the durations of its direct
        children, i.e. the part of its interval no traced callee covers.
        """
        spans = self.spans[first_span:]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= first_span:
                own[parent - first_span] -= end - start
        return own

    def totals(self, first_span: int = 0) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds) from first_span on."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        own = self.self_times(first_span)
        for (name, start, end, _, _), self_s in zip(self.spans[first_span:], own):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        """Write every span as CSV: name, start, end, parent, op, self time."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op,self_s\n")
            for i, ((name, start, end, parent, op), self_s) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{self_s!r}\n")


def layer_metrics(totals: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from span totals and counters.

    Names ending in ``_self_s`` are self time; other ``_s`` names are the
    inclusive time of the named function's spans.
    """
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    solves = calls("solver.solve_assignment")
    pivots = counts.get("solver.pivots", 0)
    simplex = incl("solver.solve_assignment") - incl("solver.build_transport")
    return {
        "solver.pivots": pivots,
        "solver.simplex_s": simplex,
        "solver.s_per_pivot": simplex / pivots if pivots else 0.0,
        "solver.build_s": incl("solver.build_transport"),
        "grid.coords_s": incl("grid.coords_array"),
        "grid.coords_calls": calls("grid.coords_array"),
        "grid.merge_map_s": incl("grid.merge_map"),
        "model.cost_iso_s": incl("model.cost_sites"),
        "model.cost_aniso_s": incl("model.cost_sites_aniso"),
        "model.cost_entries": counts.get("model.cost_entries", 0),
        "coreset.extend_s": incl("coreset.extend"),
        "coreset.solve_coarse_self_s": own("coreset.solve_coarse"),
        "coreset.plan_s": incl("coreset.make_plan"),
        "diagrams.check_s": incl("diagrams.check_compatibility"),
        "diagrams.from_duals_s": incl("diagrams.from_duals"),
        "diagrams.checks": calls("diagrams.check_compatibility"),
        "coreset.verify_a_s": incl("coreset.verify_property_a"),
        "cli.main_self_s": own("cli.main"),
        "cli.load_s": incl("cli.load_instance"),
        "cli.rows": counts.get("cli.rows", 0),
        "solver.calls": solves,
        "solver.points": counts.get("solver.points", 0),
        "solver.exact_share": counts.get("solver.exact", 0) / solves if solves else 0.0,
        "solver.fractional": counts.get("solver.fractional", 0),
    }
