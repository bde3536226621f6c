"""Built-in series and operators, plus the classical congruence checkers.

Each entry pairs a closed-form power series with the differential operator
annihilating it (when one is available), so the recursion and the closed
form can cross-validate each other. The Frobenius period annotation is the
multiplicative order of p modulo the lcm of the parameter denominators for
hypergeometric entries and 1 for the others.
"""

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .diffops import DiffOp, monicize
from .errors import BadContext, BadParameters, IntegralityFailure, OrderExhausted
from .rings import PadicContext, Ramification, _capped_power, record
from .series import TruncSeries


class SeriesKind(Enum):
    HYPERGEOMETRIC = "hypergeometric"
    APERY = "apery"
    BESSEL = "bessel"
    EXPONENTIAL = "exponential"
    FFRAK = "ffrak"


@record
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


@record
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

    @property
    def operator_shape(self):
        """(order, is_mom) of the operator, or None when the entry has none.
        Both are read off the operator mod z: is_mom reads only z^0, and
        neither they nor monicize's errors depend on the order, so the lead
        series is inverted to order 1 only."""
        if self.operator_terms is None:
            return None
        head = monicize(self.operator_terms, self.spec.ctx, 1)
        return head.order, head.is_mom


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


def _ratio_series(ctx, order: int, step: int, pi_power: int, ratio) -> TruncSeries:
    """sum_k c_k pi^(pi_power k) z^(step k) mod z^order, with c_0 = 1 and
    c_k = c_(k-1) P_k / Q_k for the integers (P_k, Q_k) = ratio(k), Q_k > 0,
    built on integer rows: c_k is N_k = P_1..P_k over the running
    denominator Q_1..Q_k, brought to the last one by one backward pass.
    pi^e = -p (a Dwork context) folds the powers of pi; pi_power = 0 needs
    no pi.
    """
    e, p = ctx.e, ctx.prime
    terms = -(-order // step)
    nums, dens = [1], [1]
    for k in range(1, terms):
        num, den = ratio(k)
        nums.append(nums[-1] * num)
        dens.append(den)
    rows = [[0] * order for _ in range(e)]
    tail = 1  # Q_(k+1)..Q_last
    for k in range(terms - 1, -1, -1):
        q, t = divmod(pi_power * k, e)
        rows[t][step * k] = nums[k] * tail * (-p) ** q
        tail *= dens[k]
    return TruncSeries.from_rows(ctx, tail, rows)


def _hypergeometric(spec: SeriesSpec):
    alphas = spec.alphas
    n = len(alphas)

    def ratio(j):
        # (alpha)_j / (alpha)_(j-1) = alpha + j - 1, over j^n in all
        num, den = 1, j**n
        for a in alphas:
            num *= a.numerator + (j - 1) * a.denominator
            den *= a.denominator
        return num, den

    series = _ratio_series(spec.ctx, spec.order, 1, 0, ratio)
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
    series = _ratio_series(ctx, spec.order, 2, 2, lambda n: (-1, 4 * n * n))
    return series, ((0, (0, 0, 1)), (2, (ctx.pi() ** 2,)))


def _exponential(spec: SeriesSpec):
    ctx = spec.ctx
    if ctx.ramification is not Ramification.DWORK:
        raise BadContext("exponential entry needs the Eisenstein uniformizer")
    series = _ratio_series(ctx, spec.order, 1, 1, lambda j: (1, j))
    return series, ((0, (0, 1)), (1, (-ctx.pi(),)))


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


@record
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
    j = f.first_nonintegral(f.order)
    if j is not None:
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
    prod = _prefix_series(f, ctx.prime) * f.subst_zpk_truncated(1, f.order)
    idx = f.first_discrepancy(prod, ctx.e, f.order)
    return CongruenceReport("p-lucas", ctx.prime, 1, f.order, idx)


def _power_text(p: int, s: int) -> str:
    """p^s in decimal when Python prints an int that long (see
    sys.get_int_max_str_digits), else the text p^s."""
    # Pythons before 3.10.7 have no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or s * math.log10(p) < limit + 1:
        try:
            return str(p**s)
        except ValueError:
            pass
    return f"{p}^{s}"


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
    if f.order < _capped_power(p, s, f.order):
        raise OrderExhausted(f"need at least p^s = {_power_text(p, s)} coefficients")
    fp = f.subst_zpk_truncated(1, f.order)
    lhs = f * _prefix_series(f, p ** (s - 1)).subst_zpk_truncated(1, f.order)
    rhs = _prefix_series(f, p**s) * fp
    idx = lhs.first_discrepancy(rhs, s * ctx.e, f.order)
    return CongruenceReport("dwork", p, s, f.order, idx)
