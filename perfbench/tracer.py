"""Per-layer spans and counts, recorded from outside the engine.

``instrument`` replaces the public functions and methods at each layer
boundary of ``modforms`` with wrappers that record a span (name, start,
end, parent) in memory; nothing in ``src/modforms`` is edited. The spans
are written out when the traced process ends, and ``layer_metrics``
reduces them to the per-layer metrics named in ``BENCHMARK.json``.

Three details of the engine shape the patching:

- Modules are taken from ``sys.modules``: ``modforms/__init__`` re-exports
  ``hecke`` under the module's own name, so ``from modforms import
  hecke`` yields the function.
- A function is replaced in every ``modforms`` namespace that bound it
  (``from .forms import catalog`` makes a second binding), or calls
  through the other binding would go unrecorded.
- ``__getitem__`` is never wrapped: the Hecke and eigenform loops index
  coefficients hundreds of thousands of times, and a wrapper there would
  measure the wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("qseries", "hecke", "exactmath", "forms", "nearly", "brackets", "verify", "cli")

# The per-layer metrics that depend only on the input, so they must
# repeat exactly from one traced run to the next.
COUNT_METRICS = (
    "qseries.mul.calls",
    "qseries.mul.coeff_pairs",
    "qseries.mul.max_coeff_bits",
    "hecke.hecke.calls",
    "hecke.hecke.coeffs_out",
    "hecke.eigenform_test.calls",
    "hecke.eigenform_test.hits",
    "hecke.eigenform_test.miss_coeffs_needed",
    "hecke.eigenform_test.miss_coeffs_computed",
    "hecke.eigenform_test.miss_useful_ratio",
    "exactmath.solve_linear.calls",
    "exactmath.solve_linear.cells",
    "forms.catalog.builds",
    "forms.cache_hit_ratio",
    "brackets.rankin_cohen.calls",
    "cli.command.calls",
    "trace.spans",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or -1]."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._cache_infos: list = []
        self._catalog_info = None

    def wrap(self, fn, name, after=None):
        """Wrap fn in a span; name may be a function of the call's args.

        ``after(tracer, args, result)`` runs inside the span, so the cost
        of counting lands in the wrapped function's own time.
        """
        spans, stack, clock = self.spans, self._stack, self._clock
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            span = [name_of(args) if name_of else name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": [
                        [index[n], round(a - origin, 7), round(b - origin, 7), p]
                        for n, a, b, p in self.spans
                    ],
                },
                handle,
                separators=(",", ":"),
            )


# -- counting hooks ----------------------------------------------------------


def _count_mul(tracer, args, result) -> None:
    p = result.prec
    tracer.counts["qseries.mul.coeff_pairs"] += (p + 1) * (p + 2) // 2
    bits = max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs
    )
    if bits > tracer.counts["qseries.mul.max_coeff_bits"]:
        tracer.counts["qseries.mul.max_coeff_bits"] = bits


def _count_hecke(tracer, args, result) -> None:
    tracer.counts["hecke.hecke.coeffs_out"] += result.prec + 1


def _count_eigen(tracer, args, report) -> None:
    c = tracer.counts
    if report.is_eigen_up_to_bound:
        c["hecke.eigenform_test.hits"] += 1
        return
    # Coefficients compared up to and including the first violation,
    # against the coefficients T_n f was computed to, over all Y-components.
    v = report.first_violation
    ncomp = len(args[0].components) if hasattr(args[0], "components") else 1
    c["hecke.eigenform_test.miss_coeffs_needed"] += v.exponent * ncomp + (v.y_power or 0) + 1
    c["hecke.eigenform_test.miss_coeffs_computed"] += (report.precision_used // v.n + 1) * ncomp


def _count_solve(tracer, args, result) -> None:
    matrix = args[0]
    tracer.counts["exactmath.solve_linear.cells"] += len(matrix) * len(matrix[0])


# -- patching ------------------------------------------------------------------


def _engine_modules() -> list:
    return [
        m for n, m in sorted(sys.modules.items())
        if (n == "modforms" or n.startswith("modforms.")) and m is not None
    ]


def _patch_function(tracer, module, attr, name, after=None) -> None:
    original = getattr(module, attr)
    wrapper = tracer.wrap(original, name, after)
    for mod in _engine_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer, cls, attr, name, after=None) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, after))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported ``modforms``."""
    mod = {n: sys.modules[f"modforms.{n}"] for n in LAYERS}
    forms = mod["forms"]

    # Read the lru_caches before their functions are replaced.
    tracer._cache_infos = [
        forms.eisenstein.cache_info,
        forms.monomial_basis.cache_info,
        forms.cusp_delta.cache_info,
        forms.catalog.cache_info,
    ]
    tracer._catalog_info = forms.catalog.cache_info

    qs = mod["qseries"].QSeries

    # Series-by-series products are the convolutions; scaling by a
    # rational is linear and kept out of the product counts. __rmul__
    # calls self.__mul__, so one wrapper sees both.
    def mul_name(args):
        return "qseries.mul" if isinstance(args[1], qs) else "qseries.scale"

    def count_mul(tracer, args, result):
        if isinstance(args[1], qs):
            _count_mul(tracer, args, result)

    _patch_method(tracer, qs, "__mul__", mul_name, count_mul)
    _patch_method(tracer, qs, "__add__", "qseries.addsub")
    _patch_method(tracer, qs, "__sub__", "qseries.addsub")
    _patch_method(tracer, qs, "derivative", "qseries.derivative")

    _patch_function(tracer, mod["hecke"], "hecke", "hecke.hecke", _count_hecke)
    _patch_function(tracer, mod["hecke"], "hecke_nearly", "hecke.hecke_nearly")
    _patch_function(tracer, mod["hecke"], "eigenform_test", "hecke.eigenform_test", _count_eigen)

    _patch_function(tracer, mod["exactmath"], "solve_linear", "exactmath.solve_linear", _count_solve)

    _patch_function(tracer, forms, "catalog", "forms.catalog")
    _patch_function(tracer, forms, "is_modular_member", "forms.is_modular_member")
    _patch_function(tracer, forms, "eval_generator_poly", "forms.eval_generator_poly")

    nearly = mod["nearly"]
    _patch_function(tracer, nearly, "maass_shimura", "nearly.maass_shimura")
    _patch_function(tracer, nearly, "quasimodular_decompose", "nearly.quasimodular_decompose")
    _patch_method(tracer, nearly.YPolyForm, "__mul__", "nearly.ypoly_mul")

    _patch_function(tracer, mod["brackets"], "rankin_cohen", "brackets.rankin_cohen")

    verify = mod["verify"]
    for attr, suite in (
        ("verify_identity_suite", "identities"),
        ("product_search", "products"),
        ("bracket_search", "brackets"),
        ("verify_diophantine_suite", "diophantine"),
        ("ghitza_check", "ghitza"),
    ):
        _patch_function(tracer, verify, attr, f"verify.{suite}")

    for cmd_name, command in mod["cli"].main.commands.items():
        command.callback = tracer.wrap(command.callback, f"cli.{cmd_name}")


# -- reduction -----------------------------------------------------------------


def _span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive time of the outermost spans, and self time.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"incl": 0.0, "self": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        totals[name]["self"] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name]["incl"] += dur
    return totals


def layers_seen(tracer: Tracer) -> set[str]:
    return {name.split(".", 1)[0] for name, _, _, _ in tracer.spans}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, by name."""
    t = _span_totals(tracer.spans)

    def self_s(name):
        return t[name]["self"] if name in t else 0.0

    def incl_s(name):
        return t[name]["incl"] if name in t else 0.0

    c = tracer.counts
    calls = Counter(name for name, _, _, _ in tracer.spans)
    hits = sum(info().hits for info in tracer._cache_infos)
    misses = sum(info().misses for info in tracer._cache_infos)
    computed = c["hecke.eigenform_test.miss_coeffs_computed"]
    out = {name: c.get(name, 0) for name in COUNT_METRICS}
    for name in (
        "qseries.mul",
        "hecke.hecke",
        "hecke.eigenform_test",
        "exactmath.solve_linear",
        "brackets.rankin_cohen",
    ):
        out[f"{name}.calls"] = calls[name]
    out.update(
        {
            "hecke.eigenform_test.miss_useful_ratio": (
                c["hecke.eigenform_test.miss_coeffs_needed"] / computed if computed else 0.0
            ),
            "forms.catalog.builds": tracer._catalog_info().misses,
            "forms.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "qseries.mul.self_s": self_s("qseries.mul"),
            "qseries.derivative.self_s": self_s("qseries.derivative"),
            "qseries.addsub.self_s": self_s("qseries.addsub"),
            "hecke.hecke.self_s": self_s("hecke.hecke"),
            "hecke.hecke_nearly.self_s": self_s("hecke.hecke_nearly"),
            "hecke.eigenform_test.self_s": self_s("hecke.eigenform_test"),
            "exactmath.solve_linear.self_s": self_s("exactmath.solve_linear"),
            "forms.catalog.incl_s": incl_s("forms.catalog"),
            "forms.is_modular_member.incl_s": incl_s("forms.is_modular_member"),
            "forms.eval_generator_poly.incl_s": incl_s("forms.eval_generator_poly"),
            "nearly.maass_shimura.incl_s": incl_s("nearly.maass_shimura"),
            "nearly.ypoly_mul.incl_s": incl_s("nearly.ypoly_mul"),
            "nearly.quasimodular_decompose.incl_s": incl_s("nearly.quasimodular_decompose"),
            "brackets.rankin_cohen.incl_s": incl_s("brackets.rankin_cohen"),
            "cli.command.calls": sum(n for name, n in calls.items() if name.startswith("cli.")),
            "cli.command.self_s": sum(v["self"] for n, v in t.items() if n.startswith("cli.")),
            "trace.spans": len(tracer.spans),
        }
    )
    for suite in ("identities", "products", "brackets", "diophantine", "ghitza"):
        out[f"verify.{suite}.s"] = incl_s(f"verify.{suite}")
    return out
