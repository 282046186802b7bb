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
from click.testing import CliRunner

spans = tracer.Tracer()
tracer.instrument(spans)
result = CliRunner().invoke(modforms.cli.main, sys.argv[1:])
print(json.dumps({
    "exit_code": result.exit_code,
    "layers": sorted(tracer.layers_seen(spans)),
    "all_layers": sorted(tracer.LAYERS),
    "metrics": tracer.layer_metrics(spans),
}))
"""


def _traced(*argv) -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
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
    "eisenstein", "monomial_basis", "cusp_delta", "catalog", "eisenstein_power", "mixed_monomial",
    "_parse",
)


def test_stored_builders_expose_cache_counts():
    # tracer.instrument reads the first four before it patches the engine;
    # eisenstein_power and mixed_monomial are on the same store and expose
    # the same counts, and the parse memo is an lru_cache.
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
from click.testing import CliRunner
from modforms import forms
from modforms.cli import main
from modforms.verify import run_suite
forms.catalog_form("E4", 2048)
lookup = {name: info.misses for name, info in forms.cache_stats().items()}
run_suite("all", 128)
queries = [
    ["bracket", "--g", "E4", "--h", "Delta12", "--m", "1", "--prec", "64"],
    ["hecke", "--input", "Delta16", "--n", "2", "--prec", "64"],
]
codes = [CliRunner().invoke(main, argv).exit_code for argv in queries]
print(json.dumps({"lookup": lookup, "catalog": forms.catalog.cache_info().misses, "codes": codes}))
"""


def test_the_engine_never_builds_the_catalog():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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


# Two passes, in one process, over the query-mix universe's hecke and eigen
# queries on a polynomial at prec 120 and over its decompose queries.
_PARSE_MISSES = """
import json
from click.testing import CliRunner
import queries
from modforms import forms
from modforms.cli import main
texts = {text for text, _, _ in queries.POLY_POOL}
argvs = [
    argv for argv in queries.universe()
    if argv[2] in texts and (argv[0] == "decompose" or argv[argv.index("--prec") + 1] == "120")
]
codes = {CliRunner().invoke(main, argv).exit_code for argv in argvs + argvs}
info = forms.cache_stats()["_parse"]
print(json.dumps({"queries": len(argvs), "codes": sorted(codes), "hits": info.hits, "misses": info.misses}))
"""


def test_each_polynomial_text_is_parsed_once():
    # A polynomial input costs a catalog name's lookup only while its text
    # is parsed once per process, not once per query.
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
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
