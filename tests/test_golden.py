"""The verify-all report at prec 256, checked record by record against
the digests recorded in perfbench/golden/ (runtime_seconds aside)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from modforms.cli import main

GOLDEN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"


def _golden_module():
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_matches_golden_digests():
    golden = _golden_module()
    result = CliRunner().invoke(
        main, ["verify", "--suite", "all", "--prec", "256", "--json"]
    )
    assert result.exit_code == 0
    got = golden.report_digests(json.loads(result.output))
    expected = golden.load("suites.json")["verify-all"]
    differing = [
        want[0] for want, have in zip(expected["checks"], got["checks"]) if want != have
    ]
    assert differing == []
    assert len(got["checks"]) == len(expected["checks"])
    assert got["report"] == expected["report"]
