"""Timing and counting wrappers around the public functions of detres's layers.

A layer is one detres module.  ``Tracer.install`` replaces each listed
function by a wrapper in every namespace it is looked up through: its own
module, the ``detres`` package and every detres module that imported it by
name (``resultant_engine`` binds ``det_fraction_free``, ``scroll_chow``
binds ``resultant_gcd``, ``cli`` binds nearly everything).  Each call is a
span; a span's self time is its duration minus the time of the spans it
caused, and a layer's self time is the sum over its spans.  Spans stay in
memory as totals; nothing is written until the benchmark reports.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Layer -> wrapped public functions ("Class.method" for a method): those
#: the workloads reach.  Hot internal helpers such as ``glex_key`` stay
#: unwrapped, since a span per call would swamp what they measure.
LAYERS = {
    "polyring": [
        "det_fraction_free",
        "multivariate_gcd",
        "normalize_gcd_style",
        "Polynomial.evaluate",
    ],
    "chern_degree": ["existence_check", "multidegree", "total_degree"],
    "partition_schur": ["complex_terms"],
    "resultant_engine": [
        "generic_morphism",
        "concrete_morphism",
        "critical_degree",
        "build_sigma",
        "rational_rank",
        "resultant_gcd",
        "vanish_test",
    ],
    "scroll_chow": [
        "chow_problem",
        "chow_generic_morphism",
        "chow_form",
        "plane_morphism",
        "plane_meets_scroll",
        "plane_diagnostics",
    ],
    "cli": ["main"],
}


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


_UNITS = {
    "s": "s",
    "max_terms": "terms",
    "max_input_terms": "terms",
    "max_coeff_bits": "bits",
    "max_rows": "rows",
    "max_cols": "cols",
    "minors_per_confirmed": "ratio",
    "stdout_bytes": "bytes",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = metric.rsplit(".", 1)[-1]
    return "s" if last.endswith("_s") else _UNITS.get(last, "count")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)  # outermost spans only
        self.self_time: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.sizes: Counter = Counter()  # maxima and sums observed on results
        self.events: list = []  # shapes, term counts and verdicts, in call order
        self._child: list[float] = []  # time of child spans, per open span
        self._depth: Counter = Counter()
        self._restore: list = []

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name.rsplit('.', 1)[-1]}"
        observe = getattr(self, "_on_" + name.rsplit(".", 1)[-1], None)

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            self._depth[key] += 1
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dur
                self._depth[key] -= 1
                if not self._depth[key]:
                    self.inclusive[key] += dur
                self.self_time[key] += dur - child
                self.layer_self[layer] += dur - child
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"detres.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "detres" or n.startswith("detres.")]
        for layer, names in LAYERS.items():
            module = layers[layer]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, name, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- observers: sizes and outcomes read off results ----------------------

    def _on_det_fraction_free(self, args, out) -> None:
        self.sizes["det.max_terms"] = max(self.sizes["det.max_terms"], len(out.terms))
        self.sizes["det.max_coeff_bits"] = max(self.sizes["det.max_coeff_bits"], _coeff_bits(out))
        self.events.append(("det", len(args[0]), len(out.terms)))

    def _on_multivariate_gcd(self, args, out) -> None:
        size = max(len(args[0].terms), len(args[1].terms))
        self.sizes["gcd.max_input_terms"] = max(self.sizes["gcd.max_input_terms"], size)
        self.events.append(("gcd", len(args[0].terms), len(args[1].terms), len(out.terms)))

    def _on_build_sigma(self, args, out) -> None:
        rows, cols = out.shape
        self.sizes["sigma.max_rows"] = max(self.sizes["sigma.max_rows"], rows)
        self.sizes["sigma.max_cols"] = max(self.sizes["sigma.max_cols"], cols)
        self.events.append(("sigma", rows, cols, out.symbolic))

    def _on_resultant_gcd(self, args, out) -> None:
        self.sizes["minors_used"] += out.minors_used
        self.sizes["confirmed"] += out.confirmed
        self.events.append(("resultant", out.minors_used, out.confirmed, len(out.polynomial.terms)))

    def _on_rational_rank(self, args, out) -> None:
        self.events.append(("rank", len(args[0]), out))

    def _on_vanish_test(self, args, out) -> None:
        self.events.append(("vanish", out))

    def _on_plane_meets_scroll(self, args, out) -> None:
        self.events.append(("meets", out))

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (see README)."""
        c, t, s = self.calls, self.inclusive, self.sizes
        out = {
            "polyring.det.calls": c["polyring.det_fraction_free"],
            "polyring.det.s": t["polyring.det_fraction_free"],
            "polyring.det.max_terms": s["det.max_terms"],
            "polyring.det.max_coeff_bits": s["det.max_coeff_bits"],
            "polyring.gcd.calls": c["polyring.multivariate_gcd"],
            "polyring.gcd.s": t["polyring.multivariate_gcd"],
            "polyring.gcd.max_input_terms": s["gcd.max_input_terms"],
            "polyring.evaluate.calls": c["polyring.evaluate"],
            "polyring.evaluate.s": t["polyring.evaluate"],
            "resultant_engine.rank.calls": c["resultant_engine.rational_rank"],
            "resultant_engine.rank.s": t["resultant_engine.rational_rank"],
            "resultant_engine.build_sigma.calls": c["resultant_engine.build_sigma"],
            "resultant_engine.build_sigma.s": t["resultant_engine.build_sigma"],
            "resultant_engine.sigma.max_rows": s["sigma.max_rows"],
            "resultant_engine.sigma.max_cols": s["sigma.max_cols"],
            "resultant_engine.generic_morphism.s": t["resultant_engine.generic_morphism"],
            "resultant_engine.resultant_gcd.calls": c["resultant_engine.resultant_gcd"],
            "resultant_engine.resultant_gcd.self_s": self.self_time["resultant_engine.resultant_gcd"],
            "resultant_engine.minors_used": s["minors_used"],
            "resultant_engine.minors_per_confirmed": s["minors_used"] / s["confirmed"] if s["confirmed"] else 0.0,
            "chern_degree.multidegree.calls": c["chern_degree.multidegree"],
            "chern_degree.multidegree.s": t["chern_degree.multidegree"],
            "chern_degree.total_degree.s": t["chern_degree.total_degree"],
            "partition_schur.complex_terms.calls": c["partition_schur.complex_terms"],
            "partition_schur.complex_terms.s": t["partition_schur.complex_terms"],
            "scroll_chow.chow_form.s": t["scroll_chow.chow_form"],
            "scroll_chow.plane_meets_scroll.calls": c["scroll_chow.plane_meets_scroll"],
            "scroll_chow.plane_meets_scroll.s": t["scroll_chow.plane_meets_scroll"],
            "scroll_chow.plane_morphism.s": t["scroll_chow.plane_morphism"],
            "cli.main.s": t["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out

    def counts(self) -> dict:
        """Everything that must repeat exactly between runs of one seed."""
        return {"calls": dict(sorted(self.calls.items())), "sizes": dict(sorted(self.sizes.items())), "events": self.events}
