"""In-memory spans around the calls the benchmark makes into hermgrid.

A traced round replaces selected public functions with wrappers that open a
span, call the original and close the span.  The replacement is made in every
loaded hermgrid module that holds the function under its public name, so a
call from one module into another (``cli.main`` calling ``g_sharp_axis`` or
``moller_reduced_element``) is recorded as a child span of the caller.  Each span carries the op id that caused it and the index
of its parent span; nothing is written until the round ends.

Only boundaries of these functions are visible.  ``hermite`` runs inside the
``greens`` and ``scattering`` spans and ``grid`` has no production caller, so
no span here can isolate a change to either.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, function) pairs wrapped in a traced round
TARGETS = (
    ("greens", "g_sharp_axis"),
    ("greens", "g_sharp"),
    ("scattering", "moller_reduced_element"),
    ("dirac", "s_plus_green"),
    ("cli", "main"),
    ("checks", "moller_oracle_element"),
)

# quadrature rules built in set-up, each timed as one span
RULES = ("gauss_hermite", "gauss_laguerre_half", "gauss_legendre", "weighted_phi_table")

_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("p50_ms", "ms"), ("failed", "count"))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"quadrature.{rule}.build_s": "s" for rule in RULES}
    for module, func in TARGETS:
        for stat, unit in _STATS:
            units[f"{module}.{func}.{stat}"] = unit
        if func == "g_sharp":
            units["greens.g_sharp.first_at_mu_ms"] = "ms"
            units["greens.g_sharp.warm_ms"] = "ms"
    units["scattering.truncation_warnings"] = "count"
    units["trace.spans"] = "count"
    units["trace.ops_per_s"] = "1/s"
    return units


class Tracer:
    """Span store for one fresh process.

    A span is the list [name, op_id, parent, start, end, failed, cold]; the
    ``cold`` flag marks the first ``g_sharp`` call at a new (mu, gh_nodes),
    the one that pays for the inverse-denominator tensors.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._seen_mu: set = set()

    def _open(self, name: str, cold: bool = False) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op_id, parent, time.perf_counter(), 0.0, False, cold])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        cold = False
        if name == "greens.g_sharp":
            mu = args[2] if len(args) > 2 else kwargs["mu"]
            cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            key = (float(mu), cfg.gh_nodes)
            cold = key not in self._seen_mu
            self._seen_mu.add(key)
        idx = self._open(name, cold)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            self._close(idx, failed)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def instrument(self) -> None:
        """Swap every TARGETS function for its traced wrapper in each loaded
        hermgrid module that binds it under that name."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "hermgrid" or n.startswith("hermgrid."))]
        for module, func in TARGETS:
            home = sys.modules.get(f"hermgrid.{module}")
            original = getattr(home, func, None)
            if original is None:
                continue
            traced = self.wrap(f"{module}.{func}", original)
            for mod in loaded:
                if getattr(mod, func, None) is original:
                    setattr(mod, func, traced)

    def summary(self) -> dict[str, float]:
        """Per-name totals for this process: the per-layer metrics of one round."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        cold_warm: tuple[list[float], list[float]] = ([], [])
        out: dict[str, float] = {}
        for idx, (name, _, _, start, end, failed, cold) in enumerate(self.spans):
            dur = end - start
            if name.startswith("quadrature."):
                key = name + ".build_s"
                out[key] = out.get(key, 0.0) + dur
                continue
            durations.setdefault(name, []).append(dur)
            out[name + ".busy_s"] = out.get(name + ".busy_s", 0.0) + dur
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_time[idx]
            out[name + ".failed"] = out.get(name + ".failed", 0) + int(failed)
            if name == "greens.g_sharp":
                cold_warm[0 if cold else 1].append(dur)
        for name, durs in durations.items():
            out[name + ".calls"] = len(durs)
            out[name + ".p50_ms"] = statistics.median(durs) * 1e3
        if cold_warm[0]:
            out["greens.g_sharp.first_at_mu_ms"] = statistics.median(cold_warm[0]) * 1e3
        if cold_warm[1]:
            out["greens.g_sharp.warm_ms"] = statistics.fmean(cold_warm[1]) * 1e3
        out["trace.spans"] = len(self.spans)
        return out
