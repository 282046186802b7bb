"""The one way the tests run the CLI in-process."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple

from modforms.cli import main


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    # stdout and stderr as they were written, interleaved.
    output: str


class _Tee(io.StringIO):
    """A stream that also writes everything to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self._shared = shared

    def write(self, text: str) -> int:
        self._shared.write(text)
        return super().write(text)


def run_cli(*argv: str) -> CliResult:
    """Run `modforms *argv` in this process. An exception other than
    SystemExit propagates, so a traceback fails the calling test."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="modforms")
        except SystemExit as exc:
            code = exc.code
        else:
            code = 0
    return CliResult(code, out.getvalue(), err.getvalue(), output.getvalue())
