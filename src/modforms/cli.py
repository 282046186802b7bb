"""Command-line interface: series construction, Hecke action, eigenform
tests, brackets, quasimodular decomposition, and the verification suites.

All JSON output serializes rationals as "num/den" strings. An input the
engine refuses is one Error: line on stderr and exit 1; a command line the
parser refuses (a missing or unknown option, a bad integer or choice, an
unknown or absent subcommand) is one Error: line and exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json as jsonlib
import os
import re
import sys
import warnings
from types import SimpleNamespace

from .exactmath import rational_str
from .forms import (
    _WINDOW_MARGIN,
    CATALOG_NAMES,
    GeneratorPoly,
    catalog_form,
    cusp_delta,
    dim_modular,
    eisenstein,
    eval_generator_poly,
    monomial_exponents,
)
from .hecke import eigenform_test, hecke
from .nearly import quasimodular_decompose
from .brackets import rankin_cohen
from .qseries import GradedSeries, PrecisionError
from .verify import DEFAULT_PREC, SUITE_NAMES, run_suite

_NAME_RE = re.compile(r"^[A-Za-z]\w*$")
# Far above every suite and query; a larger value fails at once instead of running.
_MAX_PREC = 4096
# The largest precision decompose derives; its solve grows as the cube of it.
_MAX_DECOMPOSE_PREC = 100


class CLIError(Exception):
    """One Error: line on stderr, then exit_code: 1 for an input the engine
    refuses, 2 for a command line the parser refuses."""

    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option, only --help for help, and
    refuses a command line with one CLIError."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise CLIError(message, 2)


class _Main:
    """The modforms entry point: one parser with a subparser per command.
    Calling it runs sys.argv[1:]."""

    def __init__(self, description: str):
        self.parser = _Parser(prog="modforms", description=description)
        self._subparsers = self.parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        # Each command's body is its .callback, read at call time, so a caller
        # may rebind it (perfbench/tracer.py wraps it in a span).
        self.commands: dict[str, SimpleNamespace] = {}
        # Options that take a value, the token after them whatever it is.
        self._valued: set[str] = set()

    def command(self, name: str, *options):
        """Register the decorated function as subcommand name; each option
        is a (flag, add_argument keywords) pair."""

        def register(fn):
            sub = self._subparsers.add_parser(name, help=fn.__doc__, description=fn.__doc__)
            for flag, kwargs in options:
                sub.add_argument(flag, **kwargs)
                if "action" not in kwargs:
                    self._valued.add(flag)
            self.commands[name] = SimpleNamespace(callback=fn)
            return fn

        return register

    def main(self, args=None, prog_name=None):
        """Run one command line (sys.argv[1:] by default) and raise SystemExit
        with its exit code. prog_name is accepted and unused: the program is
        always named modforms."""
        args = sys.argv[1:] if args is None else args
        try:
            kwargs = vars(self.parser.parse_args(self._glued(args)))
            code = self.commands[kwargs.pop("command")].callback(**kwargs)
        except CLIError as exc:
            print(f"Error: {exc}", file=sys.stderr)
            code = exc.exit_code
        raise SystemExit(code or 0)

    __call__ = main

    def _glued(self, args) -> list[str]:
        """args with each option value that begins with "-" glued on as
        --option=value: argparse would read such a value as an option, but a
        polynomial such as -E4 may begin with a minus sign."""
        glued: list[str] = []
        for token in args:
            if token.startswith("-") and glued and glued[-1] in self._valued:
                glued[-1] += f"={token}"
            else:
                glued.append(token)
        return glued


def _option(flag: str, **kwargs):
    """One option: its flag and add_argument keywords. A value is shown
    under the flag's name."""
    if "action" not in kwargs:
        kwargs.setdefault("metavar", flag.lstrip("-").upper())
    return flag, kwargs


def _precision(text: str) -> int:
    """A --prec value. One that is not an integer is a usage error, worded as
    argparse words it for int; one above _MAX_PREC is an input error, raised
    while the command line is read, so no command runs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > _MAX_PREC:
        raise CLIError(f"--prec {value} exceeds the maximum {_MAX_PREC}")
    return value


def _file_path(text: str) -> str:
    """An --out value; a directory is refused as a usage error."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


_JSON = _option("--json", dest="as_json", action="store_true", help="Emit JSON.")
_PREC = _option("--prec", type=_precision, required=True, help="Certified q-coefficients.")
_DEFAULT_PREC = _option(
    "--prec", type=_precision, default=DEFAULT_PREC,
    help="Certified q-coefficients (default: %(default)s).",
)


@contextlib.contextmanager
def _domain_errors():
    """Each domain error is one Error: line, each warning one Warning: line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except (ValueError, PrecisionError) as exc:
            raise CLIError(str(exc)) from exc
    for warning in caught:
        print(f"Warning: {warning.message}", file=sys.stderr)


def _resolve_form(text: str, prec: int) -> GradedSeries:
    """A catalog name, or a weight-homogeneous polynomial in E2, E4, E6."""
    if text not in CATALOG_NAMES and _NAME_RE.match(text):
        raise CLIError(
            f"unknown form name {text!r}; catalog names are {', '.join(CATALOG_NAMES)}"
        )
    with _domain_errors():
        if text in CATALOG_NAMES:
            return catalog_form(text, prec)
        return eval_generator_poly(text, prec)


def _series_text(form: GradedSeries, as_json: bool) -> str:
    """str(form), or the bytes of json.dumps(form.to_json_dict(), indent=2) in one
    pass: each coefficient string is "num/den" digits and needs no escaping."""
    if not as_json:
        return str(form)
    data = form.to_json_dict()
    coeffs = ",\n      ".join(f'"{c}"' for c in data["series"]["coeffs"])
    return (f'{{\n  "weight": {data["weight"]},\n  "series": {{\n    "prec": {data["series"]["prec"]},'
            f'\n    "coeffs": [\n      {coeffs}\n    ]\n  }}\n}}')


main = _Main("Exact q-expansion computations for level-one modular forms.")


@main.command(
    "eis",
    _option("--weight", type=int, required=True, help="Even weight k >= 2."),
    _PREC,
    _JSON,
)
def eis_cmd(weight: int, prec: int, as_json: bool):
    """Eisenstein series of the given weight."""
    with _domain_errors():
        text = _series_text(eisenstein(weight, prec), as_json)
    print(text)


@main.command(
    "delta",
    _option("--weight", type=int, required=True, help="One of 12,16,18,20,22,26."),
    _PREC,
    _JSON,
)
def delta_cmd(weight: int, prec: int, as_json: bool):
    """Normalized cusp form of the given weight."""
    with _domain_errors():
        text = _series_text(cusp_delta(weight, prec), as_json)
    print(text)


@main.command(
    "hecke",
    _option("--input", dest="source", required=True, help="Catalog name or polynomial in E2,E4,E6."),
    _option("--n", dest="index", type=int, required=True, help="Operator index n >= 1."),
    _DEFAULT_PREC,
    _JSON,
)
def hecke_cmd(source: str, index: int, prec: int, as_json: bool):
    """Apply the n-th Hecke operator."""
    if index > _MAX_PREC:
        raise CLIError(f"--n {index} exceeds the maximum {_MAX_PREC}")
    form = _resolve_form(source, prec)
    with _domain_errors():
        text = _series_text(hecke(form, index), as_json)
    print(text)


@main.command(
    "eigen",
    _option("--input", dest="source", required=True, help="Catalog name or polynomial in E2,E4,E6."),
    _option("--bound", type=int, default=10, help="Test T_n for n <= bound (default: %(default)s)."),
    _option("--window", type=int, default=12, help="(default: %(default)s)"),
    _DEFAULT_PREC,
    _JSON,
)
def eigen_cmd(source: str, bound: int, window: int, prec: int, as_json: bool):
    """Test whether a form is a Hecke eigenform up to the bound."""
    form = _resolve_form(source, prec)
    with _domain_errors():
        report = eigenform_test(form, bound=bound, window=window)
        if as_json:
            lines = [jsonlib.dumps(report.to_json_dict(), indent=2)]
        elif report.is_eigen_up_to_bound:
            lines = [f"eigenform up to T_{report.tested_bound}"]
            lines += [f"  lambda_{n} = {lam}" for n, lam in report.eigenvalues]
        else:
            v = report.first_violation
            lines = [
                f"not an eigenform: T_{v.n} fails at q^{v.exponent}",
                f"  expected {v.expected}, got {v.actual}",
            ]
    print("\n".join(lines))


@main.command(
    "bracket",
    _option("--g", dest="g_name", required=True, help="Catalog name other than E2."),
    _option("--h", dest="h_name", required=True, help="Catalog name other than E2."),
    _option("--m", dest="order", type=int, required=True, help="Bracket order m >= 0."),
    _DEFAULT_PREC,
    _JSON,
)
def bracket_cmd(g_name: str, h_name: str, order: int, prec: int, as_json: bool):
    """Rankin-Cohen bracket [g, h]_m of two modular catalog forms."""
    if "E2" in (g_name, h_name):
        raise CLIError("E2 is quasimodular; brackets take modular forms")
    with _domain_errors():
        g = catalog_form(g_name, prec)
        h = catalog_form(h_name, prec)
        text = _series_text(rankin_cohen(g, h, order), as_json)
    print(text)


@main.command(
    "decompose",
    _option("--expr", required=True, help="Polynomial in E2, E4, E6."),
    _option("--weight", type=int, required=True, help="Expected homogeneous weight."),
    _option("--depth", type=int, required=True, help="Depth bound p < weight/2."),
    _JSON,
)
def decompose_cmd(expr: str, weight: int, depth: int, as_json: bool):
    """Split a quasimodular form into derivatives of modular forms."""
    with _domain_errors():
        poly = GeneratorPoly.parse(expr)
        actual = poly.weight()
        if actual != weight:
            raise CLIError(f"expression has weight {actual}, not the requested {weight}")
        if not 0 <= 2 * depth < weight:
            raise CLIError(f"--depth {depth} must satisfy 0 <= depth < weight/2")
        n_cols = sum(dim_modular(weight - 2 * r) for r in range(depth + 1))
        prec = max(32, n_cols + _WINDOW_MARGIN + 1)
        if prec > _MAX_DECOMPOSE_PREC:
            raise CLIError(
                f"decomposition needs precision {prec}, above the maximum {_MAX_DECOMPOSE_PREC}"
            )
        parts = quasimodular_decompose(eval_generator_poly(poly, prec), depth)
        text = _decomposition_text(parts, weight, depth, as_json)
    print(text)
    return 1 if parts is None else 0


def _decomposition_text(parts, weight: int, depth: int, as_json: bool) -> str:
    if parts is None:
        if as_json:
            return jsonlib.dumps({"weight": weight, "depth_bound": depth, "decomposable": False})
        return f"not decomposable with depth bound {depth}"

    # Every component has weight k - 2r >= 2; at weight 2 its basis is empty.
    if as_json:
        payload = {
            "weight": weight,
            "depth_bound": depth,
            "decomposable": True,
            "components": [
                {
                    "r": r,
                    "weight": part.weight,
                    "basis": [f"E4^{a}*E6^{b}" for a, b in monomial_exponents(part.weight)],
                    "coordinates": [rational_str(c) for c in coords],
                    "series": part.series.to_json_dict(),
                }
                for r, part, coords in parts
            ],
        }
        return jsonlib.dumps(payload, indent=2)
    lines = []
    for r, part, coords in parts:
        labels = ", ".join(
            f"{rational_str(c)} * E4^{a}*E6^{b}"
            for c, (a, b) in zip(coords, monomial_exponents(part.weight))
        )
        lines.append(f"D^{r} component (weight {part.weight}): {labels or '0'}")
    return "\n".join(lines)


@main.command(
    "verify",
    _option("--suite", choices=SUITE_NAMES, required=True, help="One of %(choices)s."),
    _DEFAULT_PREC,
    _option("--json", dest="as_json", action="store_true", help="Emit the JSON report."),
    _option("--out", type=_file_path, help="Also write the JSON report to a file."),
)
def verify_cmd(suite: str, prec: int, as_json: bool, out: str | None):
    """Run a verification suite; exit 0 only if every check passes."""
    # Open --out before the run, so a path that cannot be written fails at once. A
    # failed run leaves an earlier report whole (append mode) and no new file.
    created = bool(out) and not os.path.exists(out)
    try:
        handle = open(out, "a", encoding="utf-8") if out else contextlib.nullcontext()
    except OSError as exc:
        raise CLIError(f"cannot write {out}: {exc.strerror}") from exc
    try:
        with handle, _domain_errors():
            report = run_suite(suite, prec)
            payload = jsonlib.dumps(report.to_json_dict(), indent=2) if as_json or out else None
            text = payload if as_json else "\n".join(report.summary_lines())
            if out:
                handle.truncate(0)
                handle.write(payload + "\n")
    except BaseException:
        if created:
            os.remove(out)
        raise
    print(text)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    main()
