"""Outside-in tracing of heatlab's four layers.

While a traced pass runs, the public functions of ``heatlab.measures``,
``heatlab.spectral`` and ``heatlab.bounds``, ``KProfile.evaluate`` and the
stage functions of ``heatlab.cli`` are replaced by wrappers that record a
span: name, duration, and the time covered by the spans it caused.  The
package itself is not edited.  ``cli`` reaches the library through module
attributes (``spectral.kernel_matrix``) and the library modules call each
other through their globals, so a replaced attribute is seen at every call
site.  ``KProfile.evaluate`` is replaced on the class.

Spans are aggregated as they close: per name, the number of calls, the
inclusive time and the self time (inclusive minus the children's time).
A layer's self time is the sum of its spans' self times; the root span is
``cli.main``, so the four layers add up to the scenario's wall time.

``u_integral`` is counted but gets no span: a ``kernel-n800`` scenario calls
it about 435k times, and a span there would dominate what it measures.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

from heatlab import bounds, cli, measures, spectral

LAYERS = ("measures", "spectral", "bounds", "cli")

# soft_abs is an elementwise helper called inside density closures, not a stage
_NOT_SPANNED = {"soft_abs", "u_integral"}

# exp(-lambda t) > 2^-52  <=>  lambda t < 52 log 2
_USEFUL_EXPONENT = 52.0 * math.log(2.0)

# per-layer metric -> spans whose self time it sums (seconds per scenario)
TIME_GROUPS = {
    "measures.build_s": ("measures.make_mu_a", "measures.make_cauchy", "measures.make_ou"),
    "spectral.grid_s": ("spectral.make_grid", "spectral.discretize"),
    "spectral.eig_s": ("spectral.eigendecompose",),
    "spectral.kernel_matrix_s": ("spectral.kernel_matrix",),
    "spectral.apply_semigroup_s": ("spectral.apply_semigroup",),
    "spectral.trace_s": (
        "spectral.trace", "spectral.hs_norm_sq", "spectral.diagonal_trace_quadrature",
    ),
    "bounds.lyapunov_s": ("bounds.lyapunov_constant",),
    "bounds.calibrate_s": ("bounds.nash_quotients", "bounds.empirical_rate"),
    "bounds.k_profile_s": ("bounds.k_profile", "bounds.KProfile.evaluate"),
    "bounds.bound_eval_s": (
        "bounds.l2_bound", "bounds.kernel_bound", "bounds.trace_bound",
        "bounds.weight_squared_mass",
    ),
    "bounds.converse_s": ("bounds.converse_rate", "bounds.quotient_monotonicity_defect"),
    "cli.parse_s": ("cli.parse_config", "cli.from_mapping"),
    "cli.runner_self_s": tuple(f"cli.{fn.__name__}" for fn in cli._RUNNERS.values()),
    "cli.write_s": ("cli._write_outputs", "cli.to_dict"),
}

# per-layer metric -> spans whose calls it counts (calls per scenario)
CALL_GROUPS = {
    "measures.build_calls": TIME_GROUPS["measures.build_s"],
    "spectral.eig_calls": TIME_GROUPS["spectral.eig_s"],
    "spectral.kernel_matrix_calls": TIME_GROUPS["spectral.kernel_matrix_s"],
    "spectral.apply_semigroup_calls": TIME_GROUPS["spectral.apply_semigroup_s"],
}


class Tracer:
    """Span and counter collector for one benchmark process."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, inclusive s, self s]
        self.counts = dict.fromkeys(
            ("modes", "useful_modes", "kernel_flops", "apply_bytes",
             "k_evals", "k_distinct", "u_integral_calls"), 0)
        self.scenarios = 0
        self._stack = []  # child time of each open span
        self._saved = []  # (owner, key, original) of every replaced attribute
        self._smallest_time = None
        self._k_args = set()
        self._hooks = {
            "spectral.eigendecompose": self._after_eig,
            "spectral.kernel_matrix": self._after_kernel_matrix,
            "spectral.apply_semigroup": self._after_apply,
            "bounds.KProfile.evaluate": self._after_k_eval,
        }

    # -- spans ----------------------------------------------------------

    def _span(self, name, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        after = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - child
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count_u_integral(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["u_integral_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters computed from arguments and results -------------------

    def _after_eig(self, args, dec):
        w = dec.eigenvalues
        self.counts["modes"] += int(w.size)
        self.counts["useful_modes"] += int((w * self._smallest_time < _USEFUL_EXPONENT).sum())

    def _after_kernel_matrix(self, args, out):
        n, k = args[0].eigenfunctions.shape
        self.counts["kernel_flops"] += 2 * n * n * k

    def _after_apply(self, args, out):
        n, k = args[0].eigenfunctions.shape
        self.counts["apply_bytes"] += 2 * 8 * n * k

    def _after_k_eval(self, args, out):
        self.counts["k_evals"] += 1
        self._k_args.add((id(args[0]), args[1]))

    # -- installing and removing the wrappers ---------------------------

    def _replace(self, owner, key, new):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._saved.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def install(self) -> None:
        for mod in (measures, spectral, bounds):
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = vars(mod)[name]
                if inspect.isfunction(fn) and name not in _NOT_SPANNED:
                    self._replace(mod, name, self._span(f"{layer}.{name}", fn))
        self._replace(bounds, "u_integral", self._count_u_integral(bounds.u_integral))
        evaluate = self._span("bounds.KProfile.evaluate", bounds.KProfile.evaluate)
        self._replace(bounds.KProfile, "evaluate", evaluate)
        self._replace(bounds.KProfile, "__call__", evaluate)

        for name in ("main", "parse_config", "_write_outputs"):
            self._replace(cli, name, self._span(f"cli.{name}", vars(cli)[name]))
        for command, fn in list(cli._RUNNERS.items()):
            self._replace(cli._RUNNERS, command, self._span(f"cli.{fn.__name__}", fn))
        from_mapping = vars(cli.ExperimentConfig)["from_mapping"].__func__
        self._replace(cli.ExperimentConfig, "from_mapping",
                      classmethod(self._span("cli.from_mapping", from_mapping)))
        self._replace(cli.ReportRecord, "to_dict",
                      self._span("cli.to_dict", cli.ReportRecord.to_dict))

    def remove(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def begin_scenario(self, smallest_time: float) -> None:
        self._smallest_time = smallest_time
        self._k_args.clear()

    def end_scenario(self) -> None:
        self.counts["k_distinct"] += len(self._k_args)
        self.scenarios += 1

    # -- per-layer metrics ----------------------------------------------

    def _sum(self, names, field):
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def layer_self_s(self) -> dict:
        """Self time per layer, summed over every traced scenario."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per traced scenario."""
        per = 1.0 / max(self.scenarios, 1)
        c = self.counts
        out = {}
        for name, spans in TIME_GROUPS.items():
            out[name] = (self._sum(spans, 2) * per, "s")
        for name, spans in CALL_GROUPS.items():
            out[name] = (self._sum(spans, 0) * per, "count")
        for layer, secs in self.layer_self_s().items():
            out[f"{layer}.self_s"] = (secs * per, "s")
        out["spectral.useful_mode_frac"] = (_ratio(c["useful_modes"], c["modes"]), "frac")
        km_s = self._sum(TIME_GROUPS["spectral.kernel_matrix_s"], 1)
        out["spectral.kernel_matrix_gflops"] = (_ratio(c["kernel_flops"], km_s) / 1e9, "GFLOP/s")
        ap_s = self._sum(TIME_GROUPS["spectral.apply_semigroup_s"], 1)
        out["spectral.apply_semigroup_gbs"] = (_ratio(c["apply_bytes"], ap_s) / 1e9, "GB/s")
        out["bounds.k_evals"] = (c["k_evals"] * per, "count")
        out["bounds.u_integral_calls"] = (c["u_integral_calls"] * per, "count")
        out["bounds.k_distinct_frac"] = (_ratio(c["k_distinct"], c["k_evals"]), "frac")
        return out

    def table(self) -> list[str]:
        """One line per span name, largest self time first."""
        per = 1.0 / max(self.scenarios, 1)
        total = sum(s[2] for s in self.stats.values()) or 1.0
        lines = [f"{'span':<42}{'calls/sc':>11}{'incl s/sc':>12}{'self s/sc':>12}"
                 f"{'ms/call':>10}{'self %':>8}"]
        for name, (calls, incl, self_s) in sorted(self.stats.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<42}{calls * per:>11.2f}{incl * per:>12.5f}{self_s * per:>12.5f}"
                         f"{1e3 * incl / calls:>10.3f}{100 * self_s / total:>8.2f}")
        return lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
