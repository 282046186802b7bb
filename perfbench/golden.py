"""Reference answers: how the benchmark calls the CLI in-process, how it
digests what the CLI prints, and the recorder for ``golden/``.

The files under ``golden/`` were recorded once, on the engine commit the
benchmark was defined on, and every later run compares against them: a
verify report must match check by check (``runtime_seconds`` aside), and
every query-mix answer must match its recorded digest. Re-recording them
would let a changed answer pass unseen; do it only together with a
deliberate, documented change of the expected output.

Record (from the repository root; takes about a minute):

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The suite workloads and the precision each runs at.
SUITES = {"verify-all": ("all", 256), "deep-identities": ("identities", 768)}


def invoke(main, args: list[str], out: io.StringIO) -> tuple[int, str]:
    """Run the click entry point as ``python -m modforms.cli`` would.

    Returns the exit code and everything the command wrote to stdout.
    The caller passes the same ``out`` to every call: click caches a
    text wrapper per stdout object and keeps each one alive, so a fresh
    buffer per call would grow the process by about 4 KB a query.
    """
    out.seek(0)
    out.truncate()
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=args, prog_name="modforms")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        else:
            code = 0
    return code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(code: int, text: str) -> str:
    return _digest(f"{code}\n{text}")


def report_digests(report: dict) -> dict:
    """Digest of a verify report without its runtime, and one per check record."""
    stable = {k: v for k, v in report.items() if k != "runtime_seconds"}
    return {
        "report": _digest(json.dumps(stable, sort_keys=True)),
        "checks": [
            [c["id"], _digest(json.dumps(c, sort_keys=True))] for c in report["checks"]
        ],
    }


def compare_report(code: int, text: str, golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first mismatching ids) of one verify run.

    Every check record is an operation. A record fails when it differs
    from the recorded one or is missing, and an unparsable report fails
    every recorded check. A nonzero exit, or a difference outside the
    check records, counts as one failure when no record differs.
    """
    expected = golden["checks"]
    try:
        report = json.loads(text)
    except ValueError:
        return len(expected), len(expected), ["<report is not JSON>"]
    got = report_digests(report)
    bad = [
        want[0]
        for want, have in zip(expected, got["checks"])
        if want != have
    ]
    extra = abs(len(got["checks"]) - len(expected))
    bad.extend(["<missing or extra check>"] * extra)
    if code != 0 and not bad:
        bad.append(f"<exit code {code}>")
    if got["report"] != golden["report"] and not bad:
        bad.append("<report fields outside the checks differ>")
    attempted = max(len(expected), len(got["checks"]))
    return attempted, min(len(bad), attempted), bad[:5]


def load(name: str) -> dict:
    with open(GOLDEN_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)


def _record() -> None:
    import queries
    from modforms.cli import main

    out = io.StringIO()
    suites = {}
    for workload, (suite, prec) in SUITES.items():
        code, text = invoke(main, ["verify", "--suite", suite, "--prec", str(prec), "--json"], out)
        if code != 0:
            raise SystemExit(f"{workload}: verify exited with {code}")
        suites[workload] = report_digests(json.loads(text))
        print(f"{workload}: {len(suites[workload]['checks'])} checks", file=sys.stderr)

    answers = {}
    for args in queries.universe():
        code, text = invoke(main, args, out)
        if code != 0:
            raise SystemExit(f"query {queries.key(args)} exited with {code}")
        answers[queries.key(args)] = output_digest(code, text)
    print(f"query-mix: {len(answers)} answers", file=sys.stderr)

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in (("suites.json", suites), ("queries.json", answers)):
        with open(GOLDEN_DIR / name, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=0, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    _record()
