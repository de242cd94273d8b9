"""Timing wrappers around the public functions of each ``streampca`` module.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``streampca`` module, because the modules import each other's names
with ``from .x import name``: wrapping only the defining module would miss
``streampca.ewmpca.refine_to_convergence``, ``streampca.cli.read_table`` and
the like.  Methods are wrapped on their class.  ``uninstall`` puts the
originals back.

Each call records a span.  A span's self time is its duration minus the
durations of the spans called inside it, so the self times of all spans add
up to the duration of the outermost spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from streampca import cli, ewmpca, ewmstats, ipca, linalg, refine, tableio

clock = time.perf_counter

# span name -> (owner, attribute); the layer is the part before the dot.
SPANS = {
    "ewmpca.add": (ewmpca.EwmPCA, "add"),
    "ewmpca.seed_initial_basis": (ewmpca, "seed_initial_basis"),
    "refine.refine_to_convergence": (refine, "refine_to_convergence"),
    "ewmstats.ewm_update": (ewmstats, "ewm_update"),
    "ewmstats.ewm_loglik": (ewmstats, "ewm_loglik"),
    "ewmstats.estimate_alpha": (ewmstats, "estimate_alpha"),
    "tableio.read_table": (tableio, "read_table"),
    "tableio.write_table": (tableio, "write_table"),
    "tableio.write_sidecar": (tableio, "write_sidecar"),
    "cli.main": (cli, "main"),
    "cli.cmd_ipca": (cli, "cmd_ipca"),
    "cli.cmd_estimate_alpha": (cli, "cmd_estimate_alpha"),
    "cli.chunk_bounds": (cli, "chunk_bounds"),
    "ipca.fit": (ipca.IteratedPCA, "fit"),
    "ipca.transform": (ipca.IteratedPCA, "transform"),
    "linalg.jacobi_eigh": (linalg, "jacobi_eigh"),
    "linalg.sample_covariance": (linalg, "sample_covariance"),
}

LAYERS = ("ewmpca", "refine", "ewmstats", "tableio", "cli", "ipca", "linalg")


class Tracer:
    """Call counts, inclusive and self times per span name, and refinement
    and likelihood counts, accumulated while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()
        self.root_s = 0.0

    def _count(self, name: str, args, result) -> None:
        if name == "refine.refine_to_convergence":
            diag = result[1]
            self.counts["refine.iterations"] += diag.iterations
            self.counts["refine.truncated"] += int(diag.truncated)
            self.counts["refine.iterations_max"] = max(
                self.counts["refine.iterations_max"], diag.iterations
            )
        elif name == "ewmstats.ewm_loglik":
            self.counts["ewmstats.ewm_loglik_rows"] += len(args[0])

    def _wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
            self._count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "streampca" or n.startswith("streampca.")]
        for name, (owner, attr) in SPANS.items():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, as {name: (value, unit)}."""
        per = 1.0 / rounds
        t, s, c, n = self.total, self.self_time, self.calls, self.counts
        iters = n["refine.iterations"]
        loglik_rows = n["ewmstats.ewm_loglik_rows"]
        metrics = {
            "ewmpca.add_self_s": (s["ewmpca.add"] * per, "s"),
            "refine.calls": (c["refine.refine_to_convergence"] * per, "count"),
            "refine.iterations": (iters * per, "count"),
            "refine.iterations_max": (n["refine.iterations_max"], "count"),
            "refine.truncated": (n["refine.truncated"] * per, "count"),
            "refine.s": (t["refine.refine_to_convergence"] * per, "s"),
            "refine.us_per_iteration": (
                1e6 * t["refine.refine_to_convergence"] / iters if iters else 0.0,
                "us",
            ),
            "ewmstats.ewm_update_calls": (c["ewmstats.ewm_update"] * per, "count"),
            "ewmstats.ewm_update_s": (t["ewmstats.ewm_update"] * per, "s"),
            "ewmstats.ewm_loglik_calls": (c["ewmstats.ewm_loglik"] * per, "count"),
            "ewmstats.ewm_loglik_s": (t["ewmstats.ewm_loglik"] * per, "s"),
            "ewmstats.loglik_us_per_row": (
                1e6 * t["ewmstats.ewm_loglik"] / loglik_rows if loglik_rows else 0.0,
                "us",
            ),
            "ewmstats.estimate_alpha_self_s": (s["ewmstats.estimate_alpha"] * per, "s"),
            "tableio.read_table_s": (t["tableio.read_table"] * per, "s"),
            "tableio.write_table_s": (t["tableio.write_table"] * per, "s"),
            "tableio.write_sidecar_s": (t["tableio.write_sidecar"] * per, "s"),
            "cli.chunk_bounds_s": (t["cli.chunk_bounds"] * per, "s"),
            "cli.cmd_self_s": (
                (s["cli.main"] + s["cli.cmd_ipca"] + s["cli.cmd_estimate_alpha"]) * per,
                "s",
            ),
            "ipca.fit_calls": (c["ipca.fit"] * per, "count"),
            "ipca.fit_s": (t["ipca.fit"] * per, "s"),
            "ipca.transform_s": (t["ipca.transform"] * per, "s"),
            "linalg.jacobi_eigh_calls": (c["linalg.jacobi_eigh"] * per, "count"),
            "linalg.jacobi_eigh_s": (t["linalg.jacobi_eigh"] * per, "s"),
            "linalg.sample_covariance_s": (t["linalg.sample_covariance"] * per, "s"),
        }
        for layer in LAYERS:
            own = sum(v for k, v in s.items() if k.startswith(layer + "."))
            metrics[f"{layer}.self_s"] = (own * per, "s")
        return metrics
