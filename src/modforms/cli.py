"""Command-line interface: series construction, Hecke action, eigenform
tests, brackets, quasimodular decomposition, and the verification suites.

All JSON output serializes rationals as "num/den" strings. An input the
engine refuses is one Error: line on stderr and exit 1, and so is an
integer option outside -4096..4096; a command line the parser refuses (a
missing or unknown option, a malformed integer, a bad choice, an unknown
or absent subcommand) is one Error: line and exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from types import SimpleNamespace

from .exactmath import rational_str
from .forms import (
    _MAX_DIGITS,
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
from .hecke import EigenReport, Violation, eigenform_test, hecke
from .nearly import quasimodular_decompose
from .brackets import rankin_cohen
from .qseries import GradedSeries, PrecisionError, QSeries
from .verify import (
    DEFAULT_PREC,
    SUITE_NAMES,
    BracketHit,
    CheckRecord,
    ProductHit,
    VerificationReport,
    run_suite,
)

_NAME_RE = re.compile(r"^[A-Za-z]\w*$")
# What int() reads as an integer: the digits of an over-long one are counted.
_INT_RE = re.compile(r"\s*[+-]?(\d+(?:_\d+)*)\s*")
# A refused option value longer than this is quoted by this many characters.
_QUOTE_MAX = 40
# The bound of every integer option, far above every suite and query; a
# value outside -_MAX_PREC.._MAX_PREC fails at once instead of running.
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
        always named modforms.

        A line that begins with a command name is read by that command's
        subparser alone, as the top-level parser would hand it on; the
        top-level parser reads only help and a missing or unknown command.
        A reader of stdout that closes early (as `| head` does) ends the run
        with exit 1 and no traceback."""
        args = sys.argv[1:] if args is None else args
        try:
            sub = self._subparsers.choices.get(args[0]) if args else None
            if sub is None:
                kwargs = vars(self.parser.parse_args(self._glued(args)))
                name = kwargs.pop("command")
            else:
                kwargs = vars(sub.parse_args(self._glued(args[1:])))
                name = args[0]
            code = self.commands[name].callback(**kwargs)
            sys.stdout.flush()
        except CLIError as exc:
            print(f"Error: {exc}", file=sys.stderr)
            code = exc.exit_code
        except BrokenPipeError:
            # What stdout still buffers is flushed at exit: point its file at
            # os.devnull, so that flush neither fails nor prints.
            with contextlib.suppress(OSError, ValueError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            code = 1
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
    under the flag's name, and an int value is read by _bounded(flag)."""
    if "action" not in kwargs:
        kwargs.setdefault("metavar", flag.lstrip("-").upper())
    if kwargs.get("type") is int:
        kwargs["type"] = _bounded(flag)
    return flag, kwargs


def _bounded(flag: str):
    """The reader of every integer option, for option flag. A value int()
    refuses is a usage error, worded as argparse words it for int. An
    integer outside -_MAX_PREC.._MAX_PREC, or with more digits than the
    _MAX_DIGITS that int() reads, is an input error raised while the
    command line is read, so no command runs. A refused value longer than
    _QUOTE_MAX characters is quoted by its first _QUOTE_MAX and its length
    or digit count."""

    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            match = _INT_RE.fullmatch(text)
            digits = len(match.group(1).replace("_", "")) if match else 0
            if digits > _MAX_DIGITS:
                raise CLIError(
                    f"{flag} {text[:_QUOTE_MAX]!r}... of {digits} digits exceeds the cap of {_MAX_DIGITS}"
                ) from None
            quoted = repr(text) if len(text) <= _QUOTE_MAX else f"{text[:_QUOTE_MAX]!r}... ({len(text)} characters)"
            raise argparse.ArgumentTypeError(f"invalid int value: {quoted}") from None
        if -_MAX_PREC <= value <= _MAX_PREC:
            return value
        shown = str(value)
        if len(shown) > _QUOTE_MAX:
            shown = f"{shown[:_QUOTE_MAX]}... of {len(shown.lstrip('-'))} digits"
        limit = f"exceeds the maximum {_MAX_PREC}" if value > 0 else f"is below the minimum {-_MAX_PREC}"
        raise CLIError(f"{flag} {shown} {limit}")

    return read


def _file_path(text: str) -> str:
    """An --out value; a directory is refused as a usage error."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


_JSON = _option("--json", dest="as_json", action="store_true", help="Emit JSON.")
_PREC = _option("--prec", type=int, required=True, help="Certified q-coefficients.")
_DEFAULT_PREC = _option(
    "--prec", type=int, default=DEFAULT_PREC, help="Certified q-coefficients (default: %(default)s).",
)


@contextlib.contextmanager
def _domain_errors():
    """Each domain error is one Error: line, each warning one Warning: line.
    An answer with an integer too long for str() to write is one Error: line
    that names the cap."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except (ValueError, PrecisionError) as exc:
            message = str(exc)
            if "integer string conversion" in message:  # Python's int-to-str cap
                message = (
                    f"the answer has a coefficient of more than {sys.get_int_max_str_digits()} "
                    "digits, the cap on integers the engine prints"
                )
            raise CLIError(message) from exc
    for warning in caught:
        print(f"Warning: {warning.message}", file=sys.stderr)


def _resolve_form(text: str, prec: int) -> GradedSeries:
    """A catalog name, or a weight-homogeneous polynomial in E2, E4, E6; the
    caller runs it inside its _domain_errors() block."""
    if text in CATALOG_NAMES:
        return catalog_form(text, prec)
    if _NAME_RE.match(text):
        raise CLIError(
            f"unknown form name {text!r}; catalog names are {', '.join(CATALOG_NAMES)}"
        )
    return eval_generator_poly(text, prec)


def _series_text(form: GradedSeries, as_json: bool) -> str:
    """str(form), or its --json text in one pass: {"weight", "series":
    {"prec", "coeffs"}}, each coefficient a "num/den" string that needs no
    escaping. A series of denominator 1, as every catalog form is, joins its
    numerators."""
    if not as_json:
        return str(form)
    if form.denominator == 1:
        coeffs = '/1",\n      "'.join(map(str, form.numerators))
        coeffs = f'"{coeffs}/1"'
    else:
        coeffs = ",\n      ".join(f'"{c}"' for c in _coeff_texts(form))
    return (f'{{\n  "weight": {form.weight},\n  "series": {{\n    "prec": {form.prec},'
            f'\n    "coeffs": [\n      {coeffs}\n    ]\n  }}\n}}')


def _coeff_texts(series: QSeries) -> list[str]:
    """The "num/den" text of each coefficient of series, in lowest terms."""
    den = series.denominator
    return [f"{a // (g := gcd(a, den))}/{den // g}" for a in series.numerators]


def _fraction_text(value: Fraction) -> str:
    return f'"{value.numerator}/{value.denominator}"'


# The text of each leaf value, by its type: what json.dumps writes, and a
# Fraction as "num/den".
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    Fraction: _fraction_text,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}

# The (key, value) items of each record a JSON report holds, each value as it
# is: the one statement of the records' JSON shape.
_RECORD_ITEMS = {
    VerificationReport: lambda r: (
        ("suite", r.suite), ("checks", r.checks), ("passed", r.passed),
        ("failed", r.failed), ("runtime_seconds", r.runtime_seconds),
    ),
    CheckRecord: lambda c: (
        ("id", c.check_id), ("anchor", c.anchor), ("pass", c.passed), ("witness", c.witness),
    ),
    EigenReport: lambda r: zip(r._fields, r),
    Violation: lambda v: zip(v._fields, v if v.y_power is not None else v[:4]),
    ProductHit: lambda h: (
        ("product", h.description), ("weight", h.weight), ("eigenvalues", h.eigenvalues),
    ),
    BracketHit: lambda h: (
        ("bracket", h.description), ("weight", h.weight), ("classification", h.classification),
        ("coordinates", h.coordinates), ("eigenvalues", h.eigenvalues),
    ),
    QSeries: lambda s: (("prec", s.prec), ("coeffs", _coeff_texts(s))),
}


def _json_text(value, indent: str = "\n") -> str:
    """The JSON text of a report value, as json.dumps(..., indent=2) writes
    it, in one pass over the value as it is: str-keyed dicts, lists, tuples,
    the leaves of _LEAVES, and a record of _RECORD_ITEMS as the object of its
    items. Each container is one join of its items' texts, where json.dumps
    yields them piece by piece; a leaf item is written in its container's
    loop."""
    cls = type(value)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        return leaf(value)
    if cls is list or cls is tuple:
        return _array_text(value, indent)
    record = _RECORD_ITEMS.get(cls)
    if record is not None:
        return _object_text(record(value), indent)
    if isinstance(value, dict):
        return _object_text(value.items(), indent)
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _array_text(values, indent: str) -> str:
    if not values:
        return "[]"
    inner = indent + "  "
    items = []
    for item in values:
        leaf = _LEAVES.get(type(item))
        items.append(leaf(item) if leaf else _json_text(item, inner))
    return f"[{inner}{(',' + inner).join(items)}{indent}]"


def _object_text(pairs, indent: str) -> str:
    inner = indent + "  "
    items = []
    for key, item in pairs:
        leaf = _LEAVES.get(type(item))
        items.append(f"{encode_basestring_ascii(key)}: {leaf(item) if leaf else _json_text(item, inner)}")
    if not items:
        return "{}"
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


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
    with _domain_errors():
        text = _series_text(hecke(_resolve_form(source, prec), index), as_json)
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
    with _domain_errors():
        report = eigenform_test(_resolve_form(source, prec), bound=bound, window=window)
        if as_json:
            lines = [_json_text(report)]
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
            return f'{{"weight": {weight}, "depth_bound": {depth}, "decomposable": false}}'
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
                    "coordinates": coords,
                    "series": part.series,
                }
                for r, part, coords in parts
            ],
        }
        return _json_text(payload)
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
            payload = _json_text(report) if as_json or out else None
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
