"""Built-in series and operators, plus the classical congruence checkers.

Each entry pairs a closed-form power series with the differential operator
annihilating it (when one is available), so the recursion and the closed
form can cross-validate each other. The Frobenius period annotation is the
multiplicative order of p modulo the lcm of the parameter denominators for
hypergeometric entries and 1 for the others.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .diffops import DiffOp, monicize
from .errors import BadContext, BadParameters, IntegralityFailure, OrderExhausted
from .rings import PadicContext, Ramification
from .series import TruncSeries


class SeriesKind(Enum):
    HYPERGEOMETRIC = "hypergeometric"
    APERY = "apery"
    BESSEL = "bessel"
    EXPONENTIAL = "exponential"
    FFRAK = "ffrak"


@dataclass(frozen=True)
class SeriesSpec:
    kind: SeriesKind
    ctx: PadicContext
    order: int
    alphas: tuple = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "params": None
            if self.alphas is None
            else [str(a) for a in self.alphas],
            "p": self.ctx.prime,
            "ramification": self.ctx.ramification.value,
            "N": self.order,
        }


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog series with its annotations. operator_terms is the raw
    term list of the operator annihilating the series, or None; the monic
    operator itself is built from it on first read of operator, since only
    some commands use it."""

    spec: SeriesSpec
    series: TruncSeries
    operator_terms: tuple
    frobenius_period: int
    warnings: tuple

    @cached_property
    def operator(self) -> DiffOp:
        """The monic operator, or None when the entry has none."""
        if self.operator_terms is None:
            return None
        return monicize(self.operator_terms, self.spec.ctx, self.spec.order)


def _mult_order(p: int, d: int) -> int:
    if d == 1:
        return 1
    if math.gcd(p, d) != 1:
        return None
    h = 1
    x = p % d
    while x != 1:
        x = x * p % d
        h += 1
    return h


def _hypergeometric(spec: SeriesSpec):
    alphas = spec.alphas
    n = len(alphas)
    coeffs = []
    term = Fraction(1)
    for j in range(spec.order):
        if j:
            for a in alphas:
                term *= a + j - 1
            term /= Fraction(j) ** n
        coeffs.append(term)
    series = TruncSeries.from_coeffs(spec.ctx, coeffs)
    # expand prod_i (X + alpha_i)
    poly = [Fraction(1)]
    for a in alphas:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] += a * poly[i + 1]
    raw = ((0, (0,) * n + (1,)), (1, tuple(-c for c in poly)))

    d_alpha = math.lcm(*(a.denominator for a in alphas))
    h = _mult_order(spec.ctx.prime, d_alpha)
    warnings = ()
    if h is None:
        warnings = (
            f"p = {spec.ctx.prime} divides d_alpha = {d_alpha}; "
            "integrality claims are off",
        )
    return series, raw, h, warnings


def _apery_numbers(count: int) -> list:
    """The first count Apery numbers sum_k C(n,k)^2 C(n+k,k)^2, by Apery's
    recurrence (n+1)^3 u_(n+1) = (34n^3 + 51n^2 + 27n + 5) u_n - n^3 u_(n-1),
    the one the entry's operator encodes; each division is exact."""
    out = [1, 5][:count]
    for n in range(1, count - 1):
        step = (34 * n**3 + 51 * n**2 + 27 * n + 5) * out[n] - n**3 * out[n - 1]
        out.append(step // (n + 1) ** 3)
    return out


def _apery(spec: SeriesSpec):
    coeffs = _apery_numbers(spec.order)
    series = TruncSeries.from_coeffs(spec.ctx, coeffs)
    return series, ((0, (0, 0, 0, 1)), (1, (-5, -27, -51, -34)), (2, (1, 3, 3, 1)))


def _bessel(spec: SeriesSpec):
    ctx = spec.ctx
    if ctx.ramification is not Ramification.DWORK:
        raise BadContext("Bessel entry needs the Eisenstein uniformizer")
    if ctx.prime == 2:
        raise BadParameters("Bessel entry is defined for odd primes")
    pi2 = ctx.pi() ** 2
    coeffs = [ctx.zero()] * spec.order
    c = ctx.one()
    for n in range((spec.order + 1) // 2):
        if n:
            c = c * pi2 * Fraction(-1, 4 * n * n)
        coeffs[2 * n] = c
    series = TruncSeries(tuple(coeffs), ctx)
    return series, ((0, (0, 0, 1)), (2, (pi2,)))


def _exponential(spec: SeriesSpec):
    ctx = spec.ctx
    if ctx.ramification is not Ramification.DWORK:
        raise BadContext("exponential entry needs the Eisenstein uniformizer")
    pi = ctx.pi()
    coeffs = [ctx.one()]
    for j in range(1, spec.order):
        coeffs.append(coeffs[-1] * pi * Fraction(1, j))
    series = TruncSeries(tuple(coeffs), ctx)
    return series, ((0, (0, 1)), (1, (-pi,)))


def _ffrak(spec: SeriesSpec):
    coeffs = [
        Fraction(-math.comb(2 * n, n) ** 3, (2 * n - 1) * 64**n)
        for n in range(spec.order)
    ]
    return TruncSeries.from_coeffs(spec.ctx, coeffs)


def build(spec: SeriesSpec) -> CatalogEntry:
    """Series, operator terms when an operator is known, period annotation,
    warnings."""
    if spec.order < 1:
        raise BadParameters("order must be at least 1")
    if spec.kind is SeriesKind.HYPERGEOMETRIC:
        if not spec.alphas:
            raise BadParameters("hypergeometric entry needs parameters")
        series, raw, h, warnings = _hypergeometric(spec)
        return CatalogEntry(spec, series, raw, h, warnings)
    if spec.alphas is not None:
        raise BadParameters("parameters are for hypergeometric entries only")
    if spec.kind is SeriesKind.APERY:
        series, raw = _apery(spec)
    elif spec.kind is SeriesKind.BESSEL:
        series, raw = _bessel(spec)
    elif spec.kind is SeriesKind.EXPONENTIAL:
        series, raw = _exponential(spec)
    elif spec.kind is SeriesKind.FFRAK:
        series, raw = _ffrak(spec), None
    else:
        raise BadParameters(f"unknown series kind {spec.kind!r}")
    return CatalogEntry(spec, series, raw, 1, ())


# -- congruence checkers -----------------------------------------------------


@dataclass(frozen=True)
class CongruenceReport:
    kind: str
    prime: int
    level: int
    checked_upto: int
    first_failure: int

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.prime,
            "level": self.level,
            "checked_upto": self.checked_upto,
            "passed": self.passed,
            "first_failure": self.first_failure,
        }


def _require_integral(f: TruncSeries):
    if f.min_valuation() < 0:
        j = next(j for j in range(f.order) if f[j].valuation() < 0)
        raise IntegralityFailure(f"coefficient {j} has negative valuation", index=j)


def _prefix_series(f: TruncSeries, length: int) -> TruncSeries:
    """f's coefficients below z^length, then zeros to f's order."""
    pad = [0] * (f.order - min(length, f.order))
    return TruncSeries.from_rows(f.ctx, f.den, [row[:length] + pad for row in f.rows])


def p_lucas_check(f: TruncSeries) -> CongruenceReport:
    """f = F_(p-1) * f(z^p) mod pi^e, checked to the reliable order.

    The classical statement compares against f(z)^p; for integral
    coefficients the two sides agree mod p coefficientwise, and the
    substituted form keeps the check linear in the truncation order.
    """
    _require_integral(f)
    ctx = f.ctx
    prod = _prefix_series(f, ctx.prime) * f.subst_zpk(1).truncate(f.order)
    idx = f.first_discrepancy(prod, ctx.e, f.order)
    return CongruenceReport("p-lucas", ctx.prime, 1, f.order, idx)


def dwork_congruence_check(f: TruncSeries, s: int) -> CongruenceReport:
    """Denominator-cleared Dwork congruence at level s, unramified only:
    f * F_(s-1)(z^p) = F_s * f(z^p) mod p^s, with F_s the truncation of f
    to degree p^s - 1.
    """
    ctx = f.ctx
    if ctx.ramification is not Ramification.UNRAMIFIED:
        raise BadContext("Dwork congruence levels assume an unramified context")
    if s < 1:
        raise BadParameters("congruence level must be at least 1")
    _require_integral(f)
    p = ctx.prime
    if f.order < p**s:
        raise OrderExhausted(f"need at least p^s = {p**s} coefficients")
    fp = f.subst_zpk(1).truncate(f.order)
    lhs = f * _prefix_series(f, p ** (s - 1)).subst_zpk(1).truncate(f.order)
    rhs = _prefix_series(f, p**s) * fp
    idx = lhs.first_discrepancy(rhs, s * ctx.e, f.order)
    return CongruenceReport("dwork", p, s, f.order, idx)
