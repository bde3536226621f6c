"""Command-line front end.

Every subcommand emits a single report, JSON by default (sorted keys, so a
fixed request produces byte-identical output) or an indented table with
--table. The report opens with its request: the command and the value of
every declared option but --table, defaults included. Exit codes: 0 on
success, 1 when a verification fails or a library error is reported, 2 for
usage problems.
"""

import json
import sys
from fractions import Fraction

import click

from .catalog import SeriesKind, SeriesSpec, build, dwork_congruence_check, p_lucas_check
from .dependence import kolchin_scan
from .diffops import monicize, raw_terms_from_json
from .errors import BadParameters, CartierError
from .frobenius import (
    antecedent_chain,
    integrality_check,
    logderiv_certificate,
    ratio_certificate,
)
from .rings import PadicContext

_PLAIN_KINDS = {
    "apery": SeriesKind.APERY,
    "bessel": SeriesKind.BESSEL,
    "exp": SeriesKind.EXPONENTIAL,
    "exponential": SeriesKind.EXPONENTIAL,
    "ffrak": SeriesKind.FFRAK,
}
_DWORK_KINDS = {SeriesKind.BESSEL, SeriesKind.EXPONENTIAL}


def _parse_spec(text: str, prime: int, dwork: bool, order: int) -> SeriesSpec:
    text = text.strip()
    alphas = None
    if text.startswith("hyp:"):
        kind = SeriesKind.HYPERGEOMETRIC
        try:
            alphas = tuple(Fraction(tok) for tok in text[4:].split(","))
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"cannot read hypergeometric parameters in {text!r}")
    elif text in _PLAIN_KINDS:
        kind = _PLAIN_KINDS[text]
    else:
        raise click.UsageError(
            f"unknown series {text!r}; use apery, bessel, exp, ffrak or hyp:a1,a2,..."
        )
    use_dwork = dwork or kind in _DWORK_KINDS
    ctx = PadicContext.dwork(prime) if use_dwork else PadicContext.unramified(prime)
    return SeriesSpec(kind, ctx, order, alphas=alphas)


def _build(spec: SeriesSpec, warnings: list):
    """The catalog entry of spec, its warnings added to warnings once each."""
    entry = build(spec)
    warnings.extend(w for w in entry.warnings if w not in warnings)
    return entry


def _load_operator(path: str, prime: int, dwork: bool, order: int):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise BadParameters(f"operator file is not JSON: {exc}") from None
    ctx = PadicContext.dwork(prime) if dwork else PadicContext.unramified(prime)
    return monicize(list(raw_terms_from_json(data, ctx)), ctx, order)


def _table_lines(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                yield f"{pad}{key}:"
                yield from _table_lines(item, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar(item)}"
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, (dict, list)) and item:
                yield f"{pad}[{i}]"
                yield from _table_lines(item, indent + 1)
            else:
                yield f"{pad}[{i}] {_scalar(item)}"
    else:
        yield f"{pad}{_scalar(value)}"


def _scalar(item):
    if item is None:
        return "-"
    if isinstance(item, bool):
        return "yes" if item else "no"
    if isinstance(item, list):
        return "[]"
    if isinstance(item, dict):
        return "{}"
    return str(item)


def _emit(payload: dict, table: bool):
    # an explicit file: click's default stdout lookup caches every stream
    # it is handed and holds it strongly, so an in-process caller that
    # redirects stdout per call would keep every report it ever printed
    if table:
        for line in _table_lines(payload):
            click.echo(line, file=sys.stdout)
    else:
        click.echo(json.dumps(payload, sort_keys=True, indent=2), file=sys.stdout)


# structured fields of VerificationFailed, ReconstructionFailed and
# IntegralityFailure, copied into the error payload when they are set
_ERROR_FIELDS = ("order", "deg_bound", "index")


def _finish(body, ok=True):
    """Emit the report of the current command and translate outcomes into
    exit codes. body collects the warnings of the catalog entries it builds
    (_build) for the report."""
    ctx = click.get_current_context()
    # the command, then every declared parameter but --table in declaration
    # order, which --table output keeps; a repeated option is a list, or
    # null when it is not given
    request = {"command": ctx.info_name}
    for param in ctx.command.params:
        if param.name != "table":
            value = ctx.params[param.name]
            request[param.name] = (list(value) or None) if isinstance(value, tuple) else value
    warnings = []
    try:
        payload = body(warnings)
    except CartierError as err:
        error = {"type": type(err).__name__, "message": str(err)}
        for field in _ERROR_FIELDS:
            value = getattr(err, field, None)
            if value is not None:
                error[field] = value
        payload = {"error": error}
        ok = False
    if warnings:
        payload = {**payload, "warnings": warnings}
    _emit({"request": request, **payload}, ctx.params["table"])
    passed = ok(payload) if callable(ok) else ok
    if not passed:
        raise SystemExit(1)


series_option = click.option("--series", required=True)
prime_option = click.option("--prime", type=int, required=True)
dwork_option = click.option(
    "--dwork", is_flag=True, help="Use the Eisenstein uniformizer pi with pi^(p-1) = -p."
)
order_option = click.option("--order", type=int, default=48, show_default=True)
table_option = click.option("--table", is_flag=True, help="Aligned text instead of JSON.")


@click.group()
def main():
    """p-adic series, Frobenius antecedents, and congruence certificates."""


@main.command()
@series_option
@prime_option
@dwork_option
@order_option
@table_option
def gen(series, prime, dwork, order, table):
    """Build a catalog series and report it with its annotations."""
    def body(warnings):
        entry = _build(_parse_spec(series, prime, dwork, order), warnings)
        shape = entry.operator_shape
        operator = None if shape is None else {"order": shape[0], "mom": shape[1]}
        return {
            "series": entry.series.to_json_dict(),
            "operator": operator,
            "frobenius_period": entry.frobenius_period,
            "warnings": list(entry.warnings),
        }

    _finish(body)


@main.command("check-integrality")
@series_option
@prime_option
@dwork_option
@order_option
@click.option("--level", type=int, default=1, show_default=True)
@table_option
def check_integrality(series, prime, dwork, order, level, table):
    """Check coefficient valuations on the window up to p^level - 1."""
    def body(warnings):
        entry = _build(_parse_spec(series, prime, dwork, order), warnings)
        return {"report": integrality_check(entry.series, level).to_json_dict()}

    _finish(body, ok=lambda p: p["report"]["passed"])


@main.command("check-lucas")
@series_option
@prime_option
@dwork_option
@order_option
@table_option
def check_lucas(series, prime, dwork, order, table):
    """Check f = F_(p-1) * f(z^p) mod pi^e to the reliable order."""
    def body(warnings):
        entry = _build(_parse_spec(series, prime, dwork, order), warnings)
        return {"report": p_lucas_check(entry.series).to_json_dict()}

    _finish(body, ok=lambda p: p["report"]["passed"])


@main.command("check-dwork")
@series_option
@prime_option
@order_option
@click.option("--s", type=int, required=True, help="Congruence level.")
@table_option
def check_dwork(series, prime, order, s, table):
    """Check f * F_(s-1)(z^p) = F_s * f(z^p) mod p^s."""
    def body(warnings):
        entry = _build(_parse_spec(series, prime, False, order), warnings)
        return {"report": dwork_congruence_check(entry.series, s).to_json_dict()}

    _finish(body, ok=lambda p: p["report"]["passed"])


@main.command()
@click.option("--series", default=None)
@click.option(
    "--operator-file",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON operator (terms of z-degree and delta-polynomial) instead of a catalog series.",
)
@prime_option
@dwork_option
@order_option
@click.option("--levels", type=int, default=1, show_default=True)
@table_option
def antecedent(series, operator_file, prime, dwork, order, levels, table):
    """Run the Frobenius antecedent chain and report per-level residuals."""
    if (series is None) == (operator_file is None):
        raise click.UsageError("give exactly one of --series or --operator-file")

    def body(warnings):
        if operator_file is not None:
            op = _load_operator(operator_file, prime, dwork, order)
        else:
            entry = _build(_parse_spec(series, prime, dwork, order), warnings)
            if entry.operator is None:
                raise BadParameters(f"series {series!r} ships without an operator")
            op = entry.operator
        chain = antecedent_chain(op, levels, order)
        return {"levels": [level.to_json_dict() for level in chain]}

    _finish(body)


@main.command("certify-ratio")
@series_option
@prime_option
@dwork_option
@order_option
@click.option("--level", type=int, default=1, show_default=True)
@click.option("--deg-bound", type=int, default=8, show_default=True)
@table_option
def certify_ratio(series, prime, dwork, order, level, deg_bound, table):
    """Reconstruct the rational ratio between f and its Cartier transform."""
    def body(warnings):
        entry = _build(_parse_spec(series, prime, dwork, order), warnings)
        cert = ratio_certificate(entry.series, level, deg_bound)
        return {"certificate": cert.to_json_dict()}

    _finish(body)


@main.command("certify-logderiv")
@series_option
@prime_option
@dwork_option
@order_option
@click.option("--level", type=int, default=1, show_default=True)
@click.option("--deg-bound", type=int, default=8, show_default=True)
@click.option(
    "--period",
    type=int,
    default=None,
    help="Frobenius period; defaults to the catalog annotation.",
)
@table_option
def certify_logderiv(series, prime, dwork, order, level, deg_bound, period, table):
    """Reconstruct a rational congruent to f'/f at the requested level."""
    def body(warnings):
        entry = _build(_parse_spec(series, prime, dwork, order), warnings)
        h = period if period is not None else entry.frobenius_period or 1
        cert = logderiv_certificate(entry.series, h, level, deg_bound)
        return {"certificate": cert.to_json_dict(), "period": h}

    _finish(body)


@main.command()
@click.option("--series", required=True, multiple=True)
@prime_option
@dwork_option
@order_option
@click.option("--exp-bound", type=int, required=True)
@click.option("--level", type=int, required=True)
@click.option("--deg-bound", type=int, required=True)
@click.option(
    "--derivative",
    "derivatives",
    type=int,
    multiple=True,
    help="Per-series derivative order; repeat once per --series.",
)
@table_option
def scan(series, prime, dwork, order, exp_bound, level, deg_bound, derivatives, table):
    """Scan an exponent box for certified multiplicative relations.

    A scan that finds nothing still exits 0: absence at these bounds is a
    result, not a failure.
    """
    if derivatives and len(derivatives) != len(series):
        raise click.UsageError("need one --derivative per --series")

    def body(warnings):
        specs = [_parse_spec(text, prime, dwork, order) for text in series]
        if any(spec.ctx != specs[0].ctx for spec in specs):
            raise click.UsageError("all scanned series must share one coefficient context")
        fs = [_build(spec, warnings).series for spec in specs]
        report = kolchin_scan(
            fs,
            exp_bound,
            level,
            deg_bound,
            derivative_orders=tuple(derivatives) if derivatives else None,
            names=series,
        )
        return {"report": report.to_json_dict()}

    _finish(body)


if __name__ == "__main__":
    main()
