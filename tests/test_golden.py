"""Engine outputs checked against the digests recorded in perfbench/golden/:
both verify reports record by record (runtime_seconds aside), verify-all
also at prec 128, and the prec-120 part of the query-mix universe answer
by answer."""

from __future__ import annotations

import importlib.util
import io
import json
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
