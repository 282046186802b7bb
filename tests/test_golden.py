"""Engine outputs checked against the digests recorded in perfbench/golden/:
both verify reports record by record (runtime_seconds aside), verify-all
also at prec 128, the prec-120 part of the query-mix universe answer by
answer, and every polynomial-input query of the universe at every
precision, in both orders of precision."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from modforms.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("golden")
queries = _load("queries")


# Each workload at its own precision, and verify-all also at prec 128,
# where the report is the same and the eigen scans take their sieve path
# at a second precision.
@pytest.mark.parametrize(
    "workload, prec",
    [pytest.param(w, golden.SUITES[w][1], id=w) for w in sorted(golden.SUITES)]
    + [pytest.param("verify-all", 128, id="verify-all-prec-128")],
)
def test_verify_matches_golden_digests(workload, prec):
    suite = golden.SUITES[workload][0]
    result = CliRunner().invoke(
        main, ["verify", "--suite", suite, "--prec", str(prec), "--json"]
    )
    assert result.exit_code == 0
    got = golden.report_digests(json.loads(result.output))
    expected = golden.load("suites.json")[workload]
    differing = [
        want[0] for want, have in zip(expected["checks"], got["checks"]) if want != have
    ]
    assert differing == []
    assert len(got["checks"]) == len(expected["checks"])
    assert got["report"] == expected["report"]


def _at_prec_120(args: list[str]) -> bool:
    # decompose queries carry no --prec; they choose their own.
    return "--prec" not in args or args[args.index("--prec") + 1] == "120"


def test_query_mix_at_prec_120_matches_golden_digests():
    answers = golden.load("queries.json")
    replay = [args for args in queries.universe() if _at_prec_120(args)]
    assert len(replay) == 678
    out = io.StringIO()
    differing = []
    for args in replay:
        code, text = golden.invoke(main, args, out)
        if golden.output_digest(code, text) != answers[queries.key(args)]:
            differing.append(queries.key(args))
    assert differing == []


# Every polynomial-input query of the universe (hecke and eigen on a
# POLY_POOL text, and decompose, which chooses a precision below 120) in
# one new process, so the stores start empty: sorted by precision in the
# order given, then in the other order. Ascending first builds each stored
# monomial cold and rebuilds it at every larger precision; descending
# first builds it at 240 and answers every later query by truncation.
# Prints the count of queries sent and the keys whose answer differs.
_POLY_REPLAY = """
import io, json, sys
import golden, queries
from modforms.cli import main
texts = {text for text, _, _ in queries.POLY_POOL}
replay = [
    args for args in queries.universe()
    if args[0] == "decompose" or (args[0] in ("hecke", "eigen") and args[2] in texts)
]
def prec(args):
    return int(args[args.index("--prec") + 1]) if "--prec" in args else 0
answers = golden.load("queries.json")
first_descending = sys.argv[1] == "descending"
out = io.StringIO()
sent, differing = 0, []
for descending in (first_descending, not first_descending):
    for args in sorted(replay, key=prec, reverse=descending):
        code, text = golden.invoke(main, args, out)
        sent += 1
        if golden.output_digest(code, text) != answers[queries.key(args)]:
            differing.append(queries.key(args))
print(json.dumps([sent, differing]))
"""


@pytest.mark.parametrize("order", ["descending", "ascending"])
def test_polynomial_queries_across_precisions_match_golden_digests(order):
    src = PERFBENCH.parent / "src"
    path = os.pathsep.join([str(src), str(PERFBENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", _POLY_REPLAY, order],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sent, differing = json.loads(proc.stdout)
    assert sent == 2 * 730
    assert differing == []
