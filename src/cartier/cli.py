"""Command-line front end.

Every subcommand is a function that takes the warnings list and its
declared options and returns its payload; one runner (_Program.main) does
the rest. It prints a single report, JSON by default (sorted keys, so a
fixed request produces byte-identical output) or an indented table with
--table, which it adds to every command. The report opens with its request:
the command and the value of every declared option, defaults included; a
library error (CartierError) becomes its `error` payload. Exit codes: 1
when the report has an `error`, or a `report` whose `passed` is false; 0
otherwise; 2 for usage problems, which print `Error: <message>` on stderr
and nothing on stdout.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

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


class UsageError(Exception):
    """A request no command can run as given: exit 2, the message on stderr."""


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
            raise UsageError(f"cannot read hypergeometric parameters in {text!r}")
    elif text in _PLAIN_KINDS:
        kind = _PLAIN_KINDS[text]
    else:
        raise UsageError(
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
    return monicize(raw_terms_from_json(data, ctx), ctx, order)


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


def _existing_file(path):
    """The value of --operator-file: a path that names a readable file."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File {path!r} does not exist.")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} is a directory.")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"File {path!r} is not readable.")
    return path


def option(flag, dest=None, **spec):
    """(dest, flag, add_argument keywords) of one option; dest is the flag
    without its dashes, - read as _, unless given."""
    if spec.get("default") is not None:
        spec["help"] = f"{spec.get('help', '')} [default: %(default)s]".lstrip()
    return dest or flag[2:].replace("-", "_"), flag, spec


SERIES = option("--series", required=True)
PRIME = option("--prime", type=int, required=True)
DWORK = option(
    "--dwork", action="store_true", help="Use the Eisenstein uniformizer pi with pi^(p-1) = -p."
)
ORDER = option("--order", type=int, default=48)
LEVEL = option("--level", type=int, default=1)
DEG_BOUND = option("--deg-bound", type=int, default=8)

# command name -> (function, options in declaration order); the parser and
# every report's request block are built from it. A command is called with
# the warnings list (see _build) and its options, and returns its payload.
COMMANDS = {}


def command(name, *options):
    """Declare the decorated function as the command name with options."""

    def register(fn):
        COMMANDS[name] = (fn, options)
        return fn

    return register


@command("gen", SERIES, PRIME, DWORK, ORDER)
def gen(warnings, series, prime, dwork, order):
    """Build a catalog series and report it with its annotations."""
    entry = _build(_parse_spec(series, prime, dwork, order), warnings)
    shape = entry.operator_shape
    operator = None if shape is None else {"order": shape[0], "mom": shape[1]}
    return {
        "series": entry.series.to_json_dict(),
        "operator": operator,
        "frobenius_period": entry.frobenius_period,
        "warnings": list(entry.warnings),
    }


@command("check-integrality", SERIES, PRIME, DWORK, ORDER, LEVEL)
def check_integrality(warnings, series, prime, dwork, order, level):
    """Check coefficient valuations on the window up to p^level - 1."""
    entry = _build(_parse_spec(series, prime, dwork, order), warnings)
    return {"report": integrality_check(entry.series, level).to_json_dict()}


@command("check-lucas", SERIES, PRIME, DWORK, ORDER)
def check_lucas(warnings, series, prime, dwork, order):
    """Check f = F_(p-1) * f(z^p) mod pi^e to the reliable order."""
    entry = _build(_parse_spec(series, prime, dwork, order), warnings)
    return {"report": p_lucas_check(entry.series).to_json_dict()}


@command(
    "check-dwork",
    SERIES,
    PRIME,
    ORDER,
    option("--s", type=int, required=True, help="Congruence level."),
)
def check_dwork(warnings, series, prime, order, s):
    """Check f * F_(s-1)(z^p) = F_s * f(z^p) mod p^s."""
    entry = _build(_parse_spec(series, prime, False, order), warnings)
    return {"report": dwork_congruence_check(entry.series, s).to_json_dict()}


@command(
    "antecedent",
    option("--series"),
    option(
        "--operator-file",
        type=_existing_file,
        help="JSON operator (terms of z-degree and delta-polynomial) instead of a catalog series.",
    ),
    PRIME,
    DWORK,
    ORDER,
    option("--levels", type=int, default=1),
)
def antecedent(warnings, series, operator_file, prime, dwork, order, levels):
    """Run the Frobenius antecedent chain and report per-level residuals."""
    if (series is None) == (operator_file is None):
        raise UsageError("give exactly one of --series or --operator-file")
    if operator_file is not None:
        op = _load_operator(operator_file, prime, dwork, order)
    else:
        entry = _build(_parse_spec(series, prime, dwork, order), warnings)
        if entry.operator is None:
            raise BadParameters(f"series {series!r} ships without an operator")
        op = entry.operator
    chain = antecedent_chain(op, levels, order)
    return {"levels": [level.to_json_dict() for level in chain]}


@command("certify-ratio", SERIES, PRIME, DWORK, ORDER, LEVEL, DEG_BOUND)
def certify_ratio(warnings, series, prime, dwork, order, level, deg_bound):
    """Reconstruct the rational ratio between f and its Cartier transform."""
    entry = _build(_parse_spec(series, prime, dwork, order), warnings)
    cert = ratio_certificate(entry.series, level, deg_bound)
    return {"certificate": cert.to_json_dict()}


@command(
    "certify-logderiv",
    SERIES,
    PRIME,
    DWORK,
    ORDER,
    LEVEL,
    DEG_BOUND,
    option("--period", type=int, help="Frobenius period; defaults to the catalog annotation."),
)
def certify_logderiv(warnings, series, prime, dwork, order, level, deg_bound, period):
    """Reconstruct a rational congruent to f'/f at the requested level."""
    entry = _build(_parse_spec(series, prime, dwork, order), warnings)
    h = period if period is not None else entry.frobenius_period or 1
    cert = logderiv_certificate(entry.series, h, level, deg_bound)
    return {"certificate": cert.to_json_dict(), "period": h}


@command(
    "scan",
    option("--series", required=True, action="append"),
    PRIME,
    DWORK,
    ORDER,
    option("--exp-bound", type=int, required=True),
    option("--level", type=int, required=True),
    option("--deg-bound", type=int, required=True),
    option(
        "--derivative",
        "derivatives",
        type=int,
        action="append",
        help="Per-series derivative order; repeat once per --series.",
    ),
)
def scan(warnings, series, prime, dwork, order, exp_bound, level, deg_bound, derivatives):
    """Scan an exponent box for certified multiplicative relations.

    A scan that finds nothing still exits 0: absence at these bounds is a
    result, not a failure.
    """
    if derivatives and len(derivatives) != len(series):
        raise UsageError("need one --derivative per --series")
    specs = [_parse_spec(text, prime, dwork, order) for text in series]
    if any(spec.ctx != specs[0].ctx for spec in specs):
        raise UsageError("all scanned series must share one coefficient context")
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


class _Formatter(argparse.HelpFormatter):
    """Usage lines that open with `Usage:`."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, --help but no -h, and usage errors that end
    in `Error: <message>`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"Error: {message}\n")


def _parsers():
    """The program's parser and each command's subparser, by name."""
    top = _Parser(
        prog="cartier",
        description="p-adic series, Frobenius antecedents, and congruence certificates.",
    )
    choices = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    subparsers = {}
    for name, (fn, options) in COMMANDS.items():
        sub = choices.add_parser(name, help=fn.__doc__.split("\n")[0], description=fn.__doc__)
        for dest, flag, spec in options:
            sub.add_argument(flag, dest=dest, **spec)
        sub.add_argument("--table", action="store_true", help="Aligned text instead of JSON.")
        subparsers[name] = sub
    return top, subparsers


_PARSER, _SUBPARSERS = _parsers()


# structured fields of VerificationFailed, ReconstructionFailed and
# IntegralityFailure, copied into the error payload when they are set
_ERROR_FIELDS = ("order", "deg_bound", "index")


class _Program:
    """The `cartier` program, called the way a click command is called:
    click.testing.CliRunner reads name and calls main(args=..., prog_name=...)."""

    name = "cartier"

    def main(self, args=None, prog_name=None):
        """Run the command args name (sys.argv[1:] when None) and raise
        SystemExit with its exit code. Usage lines always name the program
        cartier, whatever prog_name says."""
        namespace, unknown = _PARSER.parse_known_args(args)
        name = namespace.command
        if unknown:
            _SUBPARSERS[name].error(f"unrecognized arguments: {' '.join(unknown)}")
        fn, options = COMMANDS[name]
        values = {dest: getattr(namespace, dest) for dest, _, _ in options}
        warnings = []
        try:
            payload = fn(warnings, **values)
        except UsageError as err:
            _SUBPARSERS[name].error(str(err))
        except CartierError as err:
            error = {"type": type(err).__name__, "message": str(err)}
            for field in _ERROR_FIELDS:
                value = getattr(err, field, None)
                if value is not None:
                    error[field] = value
            payload = {"error": error}
        # the request is the command, then every declared option in
        # declaration order, which --table output keeps; a repeated option is
        # a list, or null when it is not given
        payload = {"request": {"command": name, **values}, **payload}
        if warnings:
            payload["warnings"] = warnings
        if namespace.table:
            for line in _table_lines(payload):
                print(line)
        else:
            print(json.dumps(payload, sort_keys=True, indent=2))
        failed = "error" in payload or not payload.get("report", {}).get("passed", True)
        raise SystemExit(1 if failed else 0)

    def __call__(self):
        """The console and `python -m` entry. A reader that closes stdout
        early (`| head`) ends the program with exit code 1, stderr empty."""
        try:
            try:
                self.main()
            finally:
                sys.stdout.flush()
        except BrokenPipeError:
            # Python flushes stdout again at exit: point it at devnull first
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(1)


main = _Program()


if __name__ == "__main__":
    main()
