"""Multiplicative-relation scan over integer exponent boxes.

A tuple (a_1, .., a_m) is a candidate relation when prod f_i^(a_i) is
congruent, modulo pi^M, to a rational function with no poles in the open
unit disc. The scan walks primitive sign-normalized rays of the box and
reports the smallest certified multiple on each ray. A tuple is a finding
only when both of its certificates exist within the degree bound D: the
screen, for the linear combination sum a_i f_i'/f_i, which is searched
first, and then the one for the product itself. stats["screened_out"]
counts the tuples whose screen search failed; their products are never
searched. That is not a proof that the product has no certificate within
D: the log-derivative of a degree-D certificate can need degree 2D.

Absence of findings is bounded evidence, not a proof: the report embeds the
box, the level, and the degree bound it was computed with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from .errors import BadParameters, NotAUnit, NotInK0, OrderExhausted, ReconstructionFailed
from .frobenius import Certificate
from .rational import ResidueTarget, least_window, reconstruct_rational
from .series import TruncSeries, _align


def product_power(fs, exps) -> TruncSeries:
    """prod f_i^(a_i) at the common reliable order.

    Zero exponents contribute nothing; negative ones go through the series
    inverse, so those factors need a unit constant term.
    """
    fs = list(fs)
    if len(fs) != len(exps):
        raise ValueError("one exponent per series")
    return _Powers(fs).product(exps)


class _Powers:
    """The powers f_i^k of the series at their common order, each built once,
    on first use, from f_i^(k-1) (f_i^(k+1) for k < 0); one inverse each."""

    def __init__(self, fs):
        if not fs:
            raise ValueError("empty product has no context to live in")
        order = min(f.order for f in fs)
        self.one = TruncSeries.one(fs[0].ctx, order)
        self.tables = [{1: f.truncate(order)} for f in fs]

    def power(self, i: int, k: int) -> TruncSeries:
        table = self.tables[i]
        if k < 0 and -1 not in table:
            table[-1] = table[1].invert_unit()
        step = 1 if k > 0 else -1
        known = k
        while known not in table:
            known -= step
        for j in range(known, k, step):
            table[j + step] = table[j] * table[step]
        return table[k]

    def product(self, exps) -> TruncSeries:
        """prod f_i^(a_i), a product of the nonzero factors only."""
        factors = [self.power(i, a) for i, a in enumerate(exps) if a]
        return reduce(mul, factors) if factors else self.one


def _combiner(logs):
    """The map a -> sum a_i logs[i] for series of one order. The logs are
    aligned on one denominator once, so that each combination is one integer
    pass and one gcd."""
    den, rows = _align(logs)
    ctx, order = logs[0].ctx, logs[0].order

    def combine(a):
        acc = [[0] * order for _ in range(ctx.e)]
        for c, lrows in zip(a, rows):
            if c:
                acc = [list(map(add, x, map(c.__mul__, y))) for x, y in zip(acc, lrows)]
        return TruncSeries._of(ctx, den, acc)

    return combine


def _certificate(g: TruncSeries, level: int, deg_bound: int, kind: str):
    """Certified rational congruent to g mod pi^level, or None.

    least_window gives the least Pade window s that can hold an acceptable
    certificate, or None when the linear system mod pi^level that every
    such certificate satisfies has no solution; in a scan most searches end
    there, without a Pade pair. The others sweep both sources from window
    s: a window below it yields no candidate that verifies, so the
    certificate and its residual are the ones the sweep from window 1
    returns.
    """
    residues = ResidueTarget(g, level, g.order)
    first = least_window(residues, deg_bound)
    if first is None:
        return None
    try:
        cand, resid = reconstruct_rational(
            g, level, deg_bound, kind, residues=residues, first_window=first
        )
    except (ReconstructionFailed, NotInK0):
        return None
    return Certificate(kind, level, cand, g.order, resid)


def analytic_element_certificate(g: TruncSeries, level: int, deg_bound: int):
    """Rational witness that g is, to this precision, an analytic element:
    R with no poles in the open unit disc and R congruent to g mod pi^level.
    Returns None when the search space is exhausted; that is a bounded
    negative, not an error.
    """
    if g.min_valuation() < 0:
        raise ValueError("certificate search expects integral coefficients")
    cert = _certificate(g, level, deg_bound, "analytic-element")
    return None if cert is None else cert.rational


@dataclass(frozen=True)
class Finding:
    exponents: tuple
    product: Certificate
    screen: Certificate

    def to_json_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "product": self.product.to_json_dict(),
            "logderiv": self.screen.to_json_dict(),
        }


@dataclass(frozen=True)
class DependenceReport:
    series_names: tuple
    exp_bound: int
    level: int
    deg_bound: int
    derivative_orders: object
    findings: tuple
    stats: dict

    def to_json_dict(self) -> dict:
        return {
            "series": list(self.series_names),
            "exp_bound": self.exp_bound,
            "level": self.level,
            "deg_bound": self.deg_bound,
            "derivative_orders": None
            if self.derivative_orders is None
            else list(self.derivative_orders),
            "findings": [f.to_json_dict() for f in self.findings],
            "stats": dict(self.stats),
        }


def _primitive_rays(m: int, bound: int) -> list:
    out = []
    for cand in itertools.product(range(-bound, bound + 1), repeat=m):
        if all(x == 0 for x in cand):
            continue
        first = next(x for x in cand if x != 0)
        if first < 0:
            continue
        if math.gcd(*(abs(x) for x in cand)) != 1:
            continue
        out.append(cand)
    out.sort()
    return out


def _normalized_derivative(f: TruncSeries, r: int) -> TruncSeries:
    """r-th derivative divided by its leading term c z^k, so it starts at 1."""
    g = f
    for _ in range(r):
        g = g.d_dz()
    lead = g.first_nonzero()
    if lead is None:
        raise OrderExhausted(f"derivative {r} vanishes to the reliable order {f.order}")
    tail = TruncSeries.from_rows(g.ctx, g.den, [row[lead:] for row in g.rows])
    return tail._times(*tail._inverse_of(0))


def kolchin_scan(
    fs,
    exp_bound: int,
    level: int,
    deg_bound: int,
    derivative_orders=None,
    names=None,
) -> DependenceReport:
    """Walk the exponent box and certify multiplicative relations.

    Per primitive sign-normalized ray u, multiples d*u are tried in
    increasing d while they fit the box, and the first certified multiple is
    the ray's report. Findings are reported in lexicographic tuple order.
    """
    fs = list(fs)
    m = len(fs)
    if m == 0:
        raise ValueError("at least one series is required")
    if level < 1:
        raise BadParameters("level must be >= 1")
    if exp_bound < 1:
        raise BadParameters(f"exponent bound must be >= 1, got {exp_bound}")
    if deg_bound < 0:
        raise BadParameters(f"degree bound must be >= 0, got {deg_bound}")
    if names is None:
        names = tuple(f"f{i + 1}" for i in range(m))
    else:
        names = tuple(names)
        if len(names) != m:
            raise ValueError("one name per series")
    if derivative_orders is not None:
        if len(derivative_orders) != m:
            raise ValueError("one derivative order per series")
        if any(r < 0 for r in derivative_orders):
            raise BadParameters(f"derivative orders must be >= 0, got {tuple(derivative_orders)}")
        gs = [_normalized_derivative(f, r) for f, r in zip(fs, derivative_orders)]
        derivative_orders = tuple(derivative_orders)
    else:
        for f in fs:
            if f.order == 0 or f.coefficient(0) != 1:
                raise NotAUnit("scan needs constant term 1 (or derivative orders)")
        gs = fs
    powers = _Powers(gs)
    # g'/g at the common order - 1, from the table's g and 1/g
    combination = _combiner(
        [powers.power(i, 1).d_dz() * powers.power(i, -1) for i in range(m)]
    )
    rays = _primitive_rays(m, exp_bound)

    def eval_ray(u):
        tested = 0
        screened_out = 0
        d = 1
        while d * max(abs(x) for x in u) <= exp_bound:
            a = tuple(d * x for x in u)
            tested += 1
            combo = combination(a)
            screen = None
            if combo.min_valuation() >= 0:
                screen = _certificate(combo, level, deg_bound, "logderiv-screen")
            if screen is None:
                screened_out += 1
                d += 1
                continue
            prod = powers.product(a)
            product = None
            if prod.min_valuation() >= 0:
                product = _certificate(prod, level, deg_bound, "product")
            if product is None:
                d += 1
                continue
            return Finding(a, product, screen), tested, screened_out
        return None, tested, screened_out

    results = [eval_ray(u) for u in rays]

    findings = sorted(
        (r[0] for r in results if r[0] is not None), key=lambda f: f.exponents
    )
    stats = {
        "rays": len(rays),
        "tuples_tested": sum(r[1] for r in results),
        "screened_out": sum(r[2] for r in results),
        "findings": len(findings),
    }
    return DependenceReport(
        names, exp_bound, level, deg_bound, derivative_orders, tuple(findings), stats
    )
