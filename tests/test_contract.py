"""The engine's outward contract: the benchmark's tracer
(``perfbench/tracer.py``) patches the engine from outside by name, so a
renamed or removed layer function breaks ``perfbench/run.py --trace 1``;
and every name a module exports must exist."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import modforms
from modforms import forms

ROOT = Path(__file__).resolve().parent.parent

# Run in its own process: instrument() rebinds engine functions and
# methods for the life of the interpreter.
_TRACED_CALL = """
import json, sys
import modforms.cli
import tracer
from cli_run import run_cli

spans = tracer.Tracer()
tracer.instrument(spans)
result = run_cli(*sys.argv[1:])
print(json.dumps({
    "exit_code": result.exit_code,
    "layers": sorted(tracer.layers_seen(spans)),
    "all_layers": sorted(tracer.LAYERS),
    "metrics": tracer.layer_metrics(spans),
}))
"""


def _traced(*argv) -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_CALL, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_instruments_a_cli_call():
    # A bracket of two catalog names reads their builders only, so it calls
    # no traced forms function; the verify run below sees that layer.
    out = _traced("bracket", "--g", "E4", "--h", "E6", "--m", "1", "--prec", "16")
    assert out["exit_code"] == 0
    assert {"qseries", "brackets", "cli"} <= set(out["layers"])
    metrics = out["metrics"]
    assert metrics["cli.command.calls"] == 1
    assert metrics["brackets.rankin_cohen.calls"] == 1
    assert metrics["forms.catalog.builds"] == 0
    assert metrics["qseries.mul.calls"] > 0


def test_tracer_sees_every_layer_of_a_verify_run():
    # perfbench/run.py --trace 1 fails verify-all unless every layer records
    # a span, and most bracket and Hecke spans come from the scans' prefixes.
    out = _traced("verify", "--suite", "all", "--prec", "128")
    assert out["exit_code"] == 0
    assert out["layers"] == out["all_layers"]


_STORED_BUILDERS = (
    "eisenstein", "monomial_basis", "cusp_delta", "catalog", "monomial", "membership_basis",
    "_parse",
)


def test_stored_builders_expose_cache_counts():
    # tracer.instrument reads the first four before it patches the engine;
    # monomial and membership_basis are on the same store and expose the
    # same counts, and the parse memo is an lru_cache.
    for name in _STORED_BUILDERS:
        info = getattr(forms, name).cache_info()
        assert isinstance(info.hits, int) and isinstance(info.misses, int), name


def test_cache_stats_lists_every_stored_builder():
    builders = {name for name, value in vars(forms).items() if hasattr(value, "cache_info")}
    stats = forms.cache_stats()
    assert set(stats) == builders == set(_STORED_BUILDERS)
    for name, info in stats.items():
        assert info == getattr(forms, name).cache_info(), name


# Store misses after one catalog name at a high precision, then the
# catalog's misses after every suite and two CLI queries on catalog names.
_ENGINE_BUILDS = """
import json
from cli_run import run_cli
from modforms import forms
from modforms.verify import run_suite
forms.catalog_form("E4", 2048)
lookup = {name: info.misses for name, info in forms.cache_stats().items()}
run_suite("all", 128)
queries = [
    ["bracket", "--g", "E4", "--h", "Delta12", "--m", "1", "--prec", "64"],
    ["hecke", "--input", "Delta16", "--n", "2", "--prec", "64"],
]
codes = [run_cli(*argv).exit_code for argv in queries]
print(json.dumps({"lookup": lookup, "catalog": forms.catalog.cache_info().misses, "codes": codes}))
"""


def test_the_engine_never_builds_the_catalog():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-c", _ENGINE_BUILDS], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    lookup = out["lookup"]
    assert lookup["eisenstein"] == 1
    assert lookup["cusp_delta"] == lookup["monomial_basis"] == lookup["catalog"] == 0
    assert out["codes"] == [0, 0]
    assert out["catalog"] == 0


def test_no_cusp_form_is_built_from_a_checked_identity(monkeypatch):
    # The identities the suite checks must not be assumed in building the
    # forms they are checked on: no Delta_k multiplies the two sides of a
    # PRODUCT_IDENTITIES row, and none is solved for.
    from modforms import qseries
    from modforms.verify import PRODUCT_IDENTITIES

    def numerators(name):
        return tuple(forms.catalog_form(name, 64).numerators)

    rows = {frozenset([numerators(left), numerators(right)]) for left, right, _ in PRODUCT_IDENTITIES}
    operands = []
    kronecker = qseries._kronecker_product

    def spy(a, b):
        operands.append(frozenset([tuple(a), tuple(b)]))
        return kronecker(a, b)

    def refused(*args):
        raise AssertionError("a cusp form went through solve_linear")

    monkeypatch.setattr(qseries, "_kronecker_product", spy)
    monkeypatch.setattr(forms, "solve_linear", refused)
    for k in forms.DELTA_WEIGHTS:
        stored = forms.cusp_delta(k, 64)
        operands.clear()
        assert forms.cusp_delta.__wrapped__(k, 64) == stored
        assert len(operands) == (3 if k == 12 else 1), k
        assert not rows & set(operands), k


def test_no_membership_basis_product_is_a_checked_identity(monkeypatch):
    # Nor do the membership bases multiply the two sides of a
    # PRODUCT_IDENTITIES row: Delta_c*E_(k-c) and Delta12 times the cusp
    # elements of M_(k-12) make one product per cusp element of M_k where
    # dim S_k >= 2, and none where the basis is E_k and cusp_delta(k).
    from modforms import qseries
    from modforms.verify import PRODUCT_IDENTITIES

    def numerators(name):
        return tuple(forms.catalog_form(name, 64).numerators)

    rows = {frozenset([numerators(left), numerators(right)]) for left, right, _ in PRODUCT_IDENTITIES}
    operands = []
    kronecker = qseries._kronecker_product

    def spy(a, b):
        operands.append(frozenset([tuple(a), tuple(b)]))
        return kronecker(a, b)

    monkeypatch.setattr(qseries, "_kronecker_product", spy)
    for k in range(24, 61, 2):
        stored = forms.membership_basis(k, 64)
        operands.clear()
        assert forms.membership_basis.__wrapped__(k, 64) == stored
        assert len(operands) == (0 if k in forms.DELTA_WEIGHTS else forms.dim_modular(k) - 1), k
        assert not rows & set(operands), k


# Full-precision series products that the identity suite makes after a
# catalog at the same precision: all of them, and the distinct ones.
_IDENTITY_PRODUCTS = """
from modforms import qseries
from modforms.forms import catalog
from modforms.verify import run_suite
operands = []
product = qseries._product
def spy(a, b):
    if len(a) == 257:
        operands.append(frozenset([tuple(a), tuple(b)]))
    return product(a, b)
qseries._product = spy
catalog(256)
del operands[:]
run_suite("identities", 256)
print(len(operands), len(set(operands)))
"""


def test_the_identity_suite_repeats_no_product():
    # The membership bases are built from E_k and the cusp forms, so none
    # of them rebuilds a product that a checked identity makes.
    proc = subprocess.run(
        [sys.executable, "-c", _IDENTITY_PRODUCTS],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    made, distinct = map(int, proc.stdout.split())
    assert made == distinct > 0


# Two passes, in one process, over the query-mix universe's hecke and eigen
# queries on a polynomial at prec 120 and over its decompose queries.
_PARSE_MISSES = """
import json
from cli_run import run_cli
import queries
from modforms import forms
texts = {text for text, _, _ in queries.POLY_POOL}
argvs = [
    argv for argv in queries.universe()
    if argv[2] in texts and (argv[0] == "decompose" or argv[argv.index("--prec") + 1] == "120")
]
codes = {run_cli(*argv).exit_code for argv in argvs + argvs}
info = forms.cache_stats()["_parse"]
print(json.dumps({"queries": len(argvs), "codes": sorted(codes), "hits": info.hits, "misses": info.misses}))
"""


def test_each_polynomial_text_is_parsed_once():
    # A polynomial input costs a catalog name's lookup only while its text
    # is parsed once per process, not once per query.
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_MISSES], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["queries"] > 16 * 11 and out["codes"] == [0]
    assert out["misses"] == 16
    assert out["hits"] == 2 * out["queries"] - 16


def test_every_export_resolves():
    for info in pkgutil.iter_modules(modforms.__path__):
        module = importlib.import_module(f"modforms.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
