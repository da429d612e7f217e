"""Per-layer tracing of one benchmark call, from outside the program.

The tracer rebinds the public functions of each vpident module at the
import sites the CLI path calls them through, so nothing under src/ needs
to know about it. Every wrapped call records a span (calls, total time and
self time, i.e. total minus the time of the spans it directly contains)
under its layer name; a few calls also add counts. The 3x3 tensor kernels
are only counted, and only while an integration span is open, because
they run about sixteen times per integration step.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

#: (module, attribute, layer) of every traced call site
SPAN_SITES = (
    ("vpident.identify", "cauchy_response", "constitutive.cauchy_response"),
    ("vpident.metric", "cauchy_response", "constitutive.cauchy_response"),
    ("vpident.identify", "model_response_batch", "identify.model_response_batch"),
    ("vpident.cli", "levenberg_marquardt", "identify.levenberg_marquardt"),
    ("vpident.cli", "build_weighting", "cli.build_weighting"),
    ("vpident.cli", "covariance", "noise.covariance"),
    ("vpident.sensitivity", "sample_noise", "noise.sample_noise"),
    ("vpident.sensitivity", "normal_solve_operator", "sensitivity.normal_solve_operator"),
    ("vpident.cli", "monte_carlo_cloud", "sensitivity.monte_carlo_cloud"),
    ("vpident.sensitivity", "mechanics_distances", "metric.mechanics_distances"),
    ("vpident.loading:DeformationHistory", "grid", "loading.grid"),
    ("vpident.cli", "_write_csv", "cli.csv"),
    ("vpident.cli", "read_data_file", "cli.csv"),
    ("vpident.cli", "read_param_file", "cli.csv"),
    ("vpident.cli", "load_config", "config.load_config"),
)
#: (module, attribute, counter) of tensor kernels counted inside integration
COUNT_SITES = (
    ("vpident.constitutive", "det", "tensors.det"),
    ("vpident.tensors", "det", "tensors.det"),
    ("vpident.constitutive", "inverse", "tensors.inverse"),
)
INTEGRATION = "constitutive.cauchy_response"


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Collects spans and counts while installed; restores every site on
    uninstall."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.missing: list[str] = []
        self._child_time: list[float] = []
        self._integrating = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for spec, attr, layer in SPAN_SITES:
            self._rebind(spec, attr, lambda fn, site, layer=layer: self._span(fn, site, layer))
        for spec, attr, counter in COUNT_SITES:
            self._rebind(spec, attr, lambda fn, site, counter=counter: self._counter(fn, site, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, spec: str, attr: str, make) -> None:
        site = f"{spec.replace(':', '.')}.{attr}"
        owner = _owner(spec)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(site)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original, site))

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, site: str, layer: str):
        signature = inspect.signature(fn)
        count = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.site_calls[site] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments))
            integrating = layer == INTEGRATION
            self._integrating += integrating
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                self._integrating -= integrating
                if self._child_time:
                    self._child_time[-1] += elapsed
                span = self.spans.setdefault(layer, Span())
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children

        return wrapper

    def _counter(self, fn, site: str, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.site_calls[site] += 1
            if self._integrating:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def span(self, layer: str) -> Span:
        return self.spans.get(layer, Span())


def _integration_counts(args) -> dict:
    steps = (len(args["times"]) - 1) * args["n_sub"]
    return {"steps": steps, "member_steps": len(args["pvecs"]) * steps}


_COUNTERS = {
    INTEGRATION: _integration_counts,
    "identify.model_response_batch": lambda args: {"response_rows": len(args["pvecs"])},
    "metric.mechanics_distances": lambda args: {"members_scored": len(args["pvecs"])},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, lm: dict | None) -> dict:
    """Per-layer metric values (without units) of one traced call."""
    integ = tracer.span(INTEGRATION)
    response = tracer.span("identify.model_response_batch")
    steps = tracer.counts["steps"]
    member_steps = tracer.counts["member_steps"]
    lm = lm or {"iterations": 0, "trials": 0, "accepted": 0}
    return {
        "constitutive.steps": steps,
        "constitutive.member_steps": member_steps,
        "constitutive.us_per_step": _ratio(integ.self_time * 1e6, steps),
        "constitutive.ns_per_member_step": _ratio(integ.self_time * 1e9, member_steps),
        "tensors.det_per_step": _ratio(tracer.counts["tensors.det"], steps),
        "tensors.inverse_per_step": _ratio(tracer.counts["tensors.inverse"], steps),
        "identify.response_calls": response.calls,
        "identify.response_rows": _ratio(tracer.counts["response_rows"], response.calls),
        "identify.lm_iterations": lm["iterations"],
        "identify.lm_trials": lm["trials"],
        "identify.lm_accept_ratio": _ratio(lm["accepted"], lm["trials"]),
        "identify.lm_self_s": tracer.span("identify.levenberg_marquardt").self_time,
        "identify.weighting_s": tracer.span("cli.build_weighting").total,
        "noise.sample_calls": tracer.span("noise.sample_noise").calls,
        "noise.sample_s": tracer.span("noise.sample_noise").total,
        "noise.covariance_s": tracer.span("noise.covariance").total,
        "sensitivity.normal_solve_s": tracer.span("sensitivity.normal_solve_operator").total,
        "sensitivity.cloud_self_s": tracer.span("sensitivity.monte_carlo_cloud").self_time,
        "metric.members_scored": tracer.counts["members_scored"],
        "metric.self_s": tracer.span("metric.mechanics_distances").self_time,
        "loading.grid_calls": tracer.span("loading.grid").calls,
        "loading.grid_s": tracer.span("loading.grid").total,
        "cli.csv_s": tracer.span("cli.csv").total,
        "config.load_s": tracer.span("config.load_config").total,
    }


def dominant_layer(tracer: Tracer) -> tuple[str, float]:
    """The layer with the largest self time, and that self time."""
    layer = max(tracer.spans, key=lambda name: tracer.spans[name].self_time)
    return layer, tracer.spans[layer].self_time
