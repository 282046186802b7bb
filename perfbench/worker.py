"""One engine process of the benchmark; ``run.py`` starts it and reads
the JSON object it prints as its last line.

Modes:

- ``setup --precs P,...``: import ``modforms`` and build ``catalog(p)``
  for each precision; report the time.
- ``suite --workload W``: set up, then run the workload's
  ``verify --suite ... --json`` through the CLI entry point in this
  process, timed, and compare the report with ``golden/suites.json``.
- ``session --seed S (--seconds T | --rounds N)``: set up at every
  query-mix precision, then send the seeded query stream through the CLI
  entry point, one query at a time, and compare each answer with
  ``golden/queries.json``.

Every mode also samples the reference kernel of ``calib.py`` on a timer
and reports it under ``calibration``. The times it prints leave out the
sampling but are otherwise raw; ``run.py`` scales them.

With ``--spans FILE`` the engine is instrumented from outside (see
``tracer.py``) before setup, the spans are written to FILE at the end,
and the per-layer metrics are added to the printed object.

The engine is imported from ``PYTHONPATH``, which ``run.py`` points at
the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import sys

import calib
import golden
import queries
import tracer as tracing

# The process ends itself if it runs past this, so a hung engine cannot
# outlive the benchmark run that started it.
LIMIT_S = 150


def _setup(precs, spans_path, clock):
    t0 = clock()
    importlib.import_module("modforms")
    cli = importlib.import_module("modforms.cli")
    tracer = None
    if spans_path:
        tracer = tracing.Tracer(clock)
        tracing.instrument(tracer)
    catalog = sys.modules["modforms.forms"].catalog
    for p in precs:
        catalog(p)
    return cli.main, tracer, clock() - t0


def _suite(args, main, result, clock):
    suite, prec = golden.SUITES[args.workload]
    expected = golden.load("suites.json")[args.workload]
    t0 = clock()
    code, text = golden.invoke(
        main, ["verify", "--suite", suite, "--prec", str(prec), "--json"], io.StringIO()
    )
    result["wall_s"] = clock() - t0
    attempted, failed, bad = golden.compare_report(code, text, expected)
    result.update(attempted=attempted, failed=failed, mismatches=bad)


def _session(args, main, result, clock):
    expected = golden.load("queries.json")
    latencies, round_s, bad = [], [], []
    attempted = failed = 0
    out = io.StringIO()
    start = clock()
    for batch in queries.rounds(args.seed):
        in_round = 0.0
        for argv in batch:
            key = queries.key(argv)
            t0 = clock()
            try:
                code, text = golden.invoke(main, argv, out)
                took = clock() - t0
                error = None if golden.output_digest(code, text) == expected.get(key) else "wrong answer"
            except Exception as exc:  # a failing query is counted and the session goes on
                took = clock() - t0
                error = f"{type(exc).__name__}: {exc}"
            in_round += took
            latencies.append(took * 1000.0)
            attempted += 1
            if error:
                failed += 1
                if len(bad) < 5:
                    bad.append(f"{key}: {error}")
        round_s.append(in_round)
        if args.rounds and len(round_s) >= args.rounds:
            break
        if args.seconds and clock() - start >= args.seconds:
            break
    result.update(
        attempted=attempted,
        failed=failed,
        mismatches=bad,
        latencies_ms=latencies,
        round_s=round_s,
        wall_s=sum(round_s),
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "suite", "session"))
    parser.add_argument("--precs", default="")
    parser.add_argument("--workload", choices=tuple(golden.SUITES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    if args.mode == "suite":
        precs = [golden.SUITES[args.workload][1]]
    elif args.mode == "session":
        precs = list(queries.PRECS)
    else:
        precs = [int(p) for p in args.precs.split(",")]
    cal = calib.Calibration(LIMIT_S)
    cal.start()
    main_cmd, tracer, setup_s = _setup(precs, args.spans, cal.clock)
    result = {"setup_s": setup_s}
    if args.mode == "suite":
        _suite(args, main_cmd, result, cal.clock)
    elif args.mode == "session":
        _session(args, main_cmd, result, cal.clock)
    cal.stop()
    result["calibration"] = cal.summary()

    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers_seen"] = sorted(tracing.layers_seen(tracer))
        tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
