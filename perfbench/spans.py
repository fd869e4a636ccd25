"""Per-layer spans recorded from outside the package.

The tracer replaces the public functions of each minmatrix layer with
wrappers that record a span per call: name, start, end, parent span and
operation id. It patches the layer module's own attribute, the copies
that ``cli`` and ``verification`` imported by name, and the method table
behind ``symmetric.symfun``. Names other modules imported by name (for
example the ``det_bareiss`` that ``symfun_minor_sum`` calls) stay
unwrapped, so that work counts as the caller's own time. Spans stay in
memory until ``write`` puts them out as JSON lines.
"""

import json
import math
import time

from minmatrix import (
    cli,
    determinants,
    fibonacci,
    matrices,
    simulation,
    symmetric,
    verification,
)

LAYERS = {
    matrices: ("build_min_matrix", "build_c_matrix", "build_delta_matrix", "build_theta_matrix"),
    determinants: ("det_bareiss",),
    symmetric: (
        "symfun_closed",
        "symfun_nested",
        "symfun_rec6",
        "symfun_rec7",
        "symfun_ratio",
        "symfun_minor_sum",
        "build_sym_table",
        "charpoly",
        "char_matrix",
    ),
    fibonacci: ("fibonacci_identity",),
    simulation: ("simulate_covariance",),
    verification: ("run_suites",),
    cli: ("main",),
}

#: Modules whose by-name imports of another layer's functions are wrapped too.
IMPORTERS = (cli, verification)

CLI_COMMANDS = ("verify", "simulate", "det", "symfun", "matrix")

_SYMMETRIC_MS = {
    "closed": "symfun_closed",
    "nested": "symfun_nested",
    "rec6": "symfun_rec6",
    "rec7": "symfun_rec7",
    "ratio": "symfun_ratio",
    "minors": "symfun_minor_sum",
    "build_sym_table": "build_sym_table",
    "charpoly": "charpoly",
    "char_matrix": "char_matrix",
}


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


def _measure_det(value):
    return {"determinants.result_bits": abs(value).bit_length()}


def _measure_suites(results):
    return {"verification.checks": len(results)}


def _measure_simulation(estimate):
    cfg = estimate.config
    # Computed, not measured: one chunk's float64 step array.
    return {
        "simulation.samples": cfg.m,
        "simulation.step_bytes": math.ceil(cfg.m / cfg.chunks) * cfg.n * 8,
    }


_MEASURES = {
    "determinants.det_bareiss": _measure_det,
    "verification.run_suites": _measure_suites,
    "simulation.simulate_covariance": _measure_simulation,
}


class Tracer:
    """Span recorder. Each span is ``[name, start_ns, end_ns, parent, op]``;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.sums = {}
        self.op = -1
        self._stack = []

    def _record(self, name, fn, args, kwargs, measure=None):
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if measure is not None:
            for key, value in measure(result).items():
                self.add(key, value)
        return result

    def wrap(self, name, fn):
        measure = _MEASURES.get(name)
        if name == "cli.main":
            return lambda argv=None: self._record(f"cli.main.{argv[0]}", fn, (argv,), {})
        return lambda *args, **kwargs: self._record(name, fn, args, kwargs, measure)

    def start_op(self):
        """Open the root span of the next operation. It also covers the
        calibration samples taken between the operation's steps."""
        self.op += 1
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, self.op])

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def reset(self):
        """Forget warm-up spans and sums; the next operation gets id 0."""
        self.spans.clear()
        self.sums.clear()
        self.op = -1

    def install(self):
        """Patch every layer's public functions with tracing wrappers."""
        for module, names in LAYERS.items():
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(f"{_layer(module)}.{name}", original)
                setattr(module, name, wrapped)
                for importer in IMPORTERS:
                    if getattr(importer, name, None) is original:
                        setattr(importer, name, wrapped)
                for method, fn in symmetric._DISPATCH.items():
                    if fn is original:
                        symmetric._DISPATCH[method] = wrapped
        return self

    def write(self, path):
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                out.write(json.dumps(record) + "\n")

    def layer_metrics(self, scales):
        """Per-layer metrics over the traced operations.

        ``scales[op]`` is operation ``op``'s calibration scale; every span
        of that operation is scaled by it. Times are mean milliseconds per
        operation; calls and checks are totals over the run.
        """
        ops = len(scales)
        total_ns = {}
        calls = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            scaled = (end - start) * scales[op]
            total_ns[name] = total_ns.get(name, 0) + scaled
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_ns[parent] += scaled

        def per_op_ms(*names):
            return sum(total_ns.get(n, 0) for n in names) / 1e6 / ops

        builds = [f"matrices.{n}" for n in LAYERS[matrices]]
        det_calls = calls.get("determinants.det_bareiss", 0)
        sim_calls = calls.get("simulation.simulate_covariance", 0)
        sim_s = total_ns.get("simulation.simulate_covariance", 0) / 1e9
        cli_self_ns = sum(
            (end - start) * scales[op] - child_ns[i]
            for i, (name, start, end, _, op) in enumerate(self.spans)
            if name.startswith("cli.main.")
        )
        metrics = {
            "matrices.build_calls": (sum(calls.get(n, 0) for n in builds), "count"),
            "matrices.build_ms": (per_op_ms(*builds), "ms"),
            "determinants.det_bareiss_calls": (det_calls, "count"),
            "determinants.det_bareiss_ms": (per_op_ms("determinants.det_bareiss"), "ms"),
            "determinants.result_bits": (
                self.sums.get("determinants.result_bits", 0) / det_calls if det_calls else 0,
                "bits",
            ),
        }
        for short, name in _SYMMETRIC_MS.items():
            metrics[f"symmetric.{short}_ms"] = (per_op_ms(f"symmetric.{name}"), "ms")
        metrics.update({
            "fibonacci.identity_ms": (per_op_ms("fibonacci.fibonacci_identity"), "ms"),
            "verification.run_suites_ms": (per_op_ms("verification.run_suites"), "ms"),
            "verification.checks": (self.sums.get("verification.checks", 0), "count"),
            "simulation.simulate_ms": (per_op_ms("simulation.simulate_covariance"), "ms"),
            "simulation.samples_per_s": (
                self.sums.get("simulation.samples", 0) / sim_s if sim_s else 0, "1/s"
            ),
            "simulation.step_bytes": (
                self.sums.get("simulation.step_bytes", 0) / sim_calls if sim_calls else 0,
                "bytes",
            ),
        })
        for command in CLI_COMMANDS:
            metrics[f"cli.main_{command}_ms"] = (per_op_ms(f"cli.main.{command}"), "ms")
        metrics["cli.overhead_ms"] = (cli_self_ns / 1e6 / ops, "ms")
        metrics["cli.stdout_bytes"] = (self.sums.get("cli.stdout_bytes", 0) / ops, "bytes")
        return metrics
