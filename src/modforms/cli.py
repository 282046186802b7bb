"""Command-line interface: series construction, Hecke action, eigenform
tests, brackets, quasimodular decomposition, and the verification suites.

All JSON output serializes rationals as "num/den" strings.
"""

from __future__ import annotations

import contextlib
import json as jsonlib
import os
import re
import warnings

import click

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


def _prec_option(**kwargs):
    """The --prec option; a value above _MAX_PREC is one Error: line."""

    def bounded(ctx, param, value: int) -> int:
        if value > _MAX_PREC:
            raise click.ClickException(f"--prec {value} exceeds the maximum {_MAX_PREC}")
        return value

    return click.option("--prec", type=int, callback=bounded, **kwargs)


@contextlib.contextmanager
def _domain_errors():
    """Each domain error is one Error: line, each warning one Warning: line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except (ValueError, PrecisionError) as exc:
            raise click.ClickException(str(exc)) from exc
    for warning in caught:
        click.echo(f"Warning: {warning.message}", err=True)


def _resolve_form(text: str, prec: int) -> GradedSeries:
    """A catalog name, or a weight-homogeneous polynomial in E2, E4, E6."""
    if text not in CATALOG_NAMES and _NAME_RE.match(text):
        raise click.ClickException(
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


@click.group()
def main():
    """Exact q-expansion computations for level-one modular forms."""


@main.command("eis")
@click.option("--weight", type=int, required=True, help="Even weight k >= 2.")
@_prec_option(required=True, help="Certified q-coefficients.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def eis_cmd(weight: int, prec: int, as_json: bool):
    """Eisenstein series of the given weight."""
    with _domain_errors():
        text = _series_text(eisenstein(weight, prec), as_json)
    click.echo(text)


@main.command("delta")
@click.option("--weight", type=int, required=True, help="One of 12,16,18,20,22,26.")
@_prec_option(required=True, help="Certified q-coefficients.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def delta_cmd(weight: int, prec: int, as_json: bool):
    """Normalized cusp form of the given weight."""
    with _domain_errors():
        text = _series_text(cusp_delta(weight, prec), as_json)
    click.echo(text)


@main.command("hecke")
@click.option("--input", "source", required=True, help="Catalog name or polynomial in E2,E4,E6.")
@click.option("--n", "index", type=int, required=True, help="Operator index n >= 1.")
@_prec_option(default=DEFAULT_PREC, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def hecke_cmd(source: str, index: int, prec: int, as_json: bool):
    """Apply the n-th Hecke operator."""
    if index > _MAX_PREC:
        raise click.ClickException(f"--n {index} exceeds the maximum {_MAX_PREC}")
    form = _resolve_form(source, prec)
    with _domain_errors():
        text = _series_text(hecke(form, index), as_json)
    click.echo(text)


@main.command("eigen")
@click.option("--input", "source", required=True, help="Catalog name or polynomial in E2,E4,E6.")
@click.option("--bound", type=int, default=10, show_default=True, help="Test T_n for n <= bound.")
@click.option("--window", type=int, default=12, show_default=True)
@_prec_option(default=DEFAULT_PREC, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
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
    click.echo("\n".join(lines))


@main.command("bracket")
@click.option("--g", "g_name", required=True, help="Catalog name other than E2.")
@click.option("--h", "h_name", required=True, help="Catalog name other than E2.")
@click.option("--m", "order", type=int, required=True, help="Bracket order m >= 0.")
@_prec_option(default=DEFAULT_PREC, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def bracket_cmd(g_name: str, h_name: str, order: int, prec: int, as_json: bool):
    """Rankin-Cohen bracket [g, h]_m of two modular catalog forms."""
    if "E2" in (g_name, h_name):
        raise click.ClickException("E2 is quasimodular; brackets take modular forms")
    with _domain_errors():
        g = catalog_form(g_name, prec)
        h = catalog_form(h_name, prec)
        text = _series_text(rankin_cohen(g, h, order), as_json)
    click.echo(text)


@main.command("decompose")
@click.option("--expr", required=True, help="Polynomial in E2, E4, E6.")
@click.option("--weight", type=int, required=True, help="Expected homogeneous weight.")
@click.option("--depth", type=int, required=True, help="Depth bound p < weight/2.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def decompose_cmd(expr: str, weight: int, depth: int, as_json: bool):
    """Split a quasimodular form into derivatives of modular forms."""
    with _domain_errors():
        poly = GeneratorPoly.parse(expr)
        actual = poly.weight()
        if actual != weight:
            raise click.ClickException(f"expression has weight {actual}, not the requested {weight}")
        if not 0 <= 2 * depth < weight:
            raise click.ClickException(f"--depth {depth} must satisfy 0 <= depth < weight/2")
        n_cols = sum(dim_modular(weight - 2 * r) for r in range(depth + 1))
        prec = max(32, n_cols + _WINDOW_MARGIN + 1)
        if prec > _MAX_DECOMPOSE_PREC:
            raise click.ClickException(
                f"decomposition needs precision {prec}, above the maximum {_MAX_DECOMPOSE_PREC}"
            )
        parts = quasimodular_decompose(eval_generator_poly(poly, prec), depth)
        text = _decomposition_text(parts, weight, depth, as_json)
    click.echo(text)
    if parts is None:
        raise SystemExit(1)


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


@main.command("verify")
@click.option("--suite", type=click.Choice(SUITE_NAMES), required=True)
@_prec_option(default=DEFAULT_PREC, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Also write the JSON report to a file.")
@click.pass_context
def verify_cmd(ctx, suite: str, prec: int, as_json: bool, out: str | None):
    """Run a verification suite; exit 0 only if every check passes."""
    # Open --out before the run, so a path that cannot be written fails at once. A
    # failed run leaves an earlier report whole (append mode) and no new file.
    created = bool(out) and not os.path.exists(out)
    try:
        handle = open(out, "a", encoding="utf-8") if out else contextlib.nullcontext()
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc.strerror}") from exc
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
    click.echo(text)
    ctx.exit(0 if report.all_passed() else 1)


if __name__ == "__main__":
    main()
