"""Polynomials and rational functions over a p-adic context, plus the one
certificate search (reconstruct_rational).

A certificate is a rational function R with controlled degrees and no poles
in the open unit disc with R * mult congruent modulo pi^m to a truncated
series target: the scan's analytic-element witnesses and log-derivatives
(no mult), and the Frobenius ratios and their quotients. Candidates come
from extended Euclid on (z^T, first T coefficients) of g = target / mult,
windows smallest first, so the least complex certificate wins
deterministically; each one is re-verified against the full reliable
window, never trusted.

A Polynomial is stored as a TruncSeries is, as integer rows over one
canonical denominator. One Euclid serves every context: the primitive
pseudo-remainder sequence of rings._pseudo_step on integer pi-component
rows of Z[pi]/(pi^e + p). It yields the Pade pairs (pade_pairs), reduces
fractions from its terminal cofactors (RationalFunction.make), and inverts
ring elements (rings._adjugate). Every search screens a pair in the residue
ring O_K/p^K = (Z/p^K)[pi]/(pi^e + p) (raw_congruence_check) wherever that
screen decides the congruence exactly; the survivors pass one exact check
(_congruent): the candidate expanded as a series, times mult where one is
given, compared by first_discrepancy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, NegativeValuation, NotInK0, ReconstructionFailed
from .rings import Coefficient, PadicContext
from .rings import _adjugate, _primitive, _pseudo_step, _ring_mul, _scale, _strip
from .series import TruncSeries, _coefficient


class Polynomial:
    """A dense polynomial, stored as a TruncSeries is: ctx, den and e integer
    numerator rows, one per pi-component, so that coefficient j is
    sum_t rows[t][j] pi^t / den. The form is canonical (den > 0, gcd of den
    and every numerator 1) and the top column is nonzero, so equal
    polynomials have equal rows and the zero polynomial has empty rows.

    Arithmetic pads the operands to the length of the result and runs the
    series operation on them; a product of lengths la and lb is exact as a
    series truncated to la + lb - 1. coeffs is a view of Coefficients built
    on first use and cached, for indexing and rendering; no computation
    reads it. Instances are immutable, and their rows are never modified in
    place.
    """

    __slots__ = ("ctx", "den", "rows", "_view")

    @classmethod
    def _canonical(cls, ctx, den, rows):
        """The polynomial of rows over den, already canonical and stripped."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.den = den
        self.rows = rows
        self._view = None
        return self

    @classmethod
    def _of_series(cls, s: TruncSeries) -> "Polynomial":
        """The polynomial with the coefficients of the series s."""
        rows = s.rows
        n = len(rows[0])
        while n and not any(row[n - 1] for row in rows):
            n -= 1
        if n < len(rows[0]):
            rows = [row[:n] for row in rows]
        return cls._canonical(s.ctx, s.den if n else 1, rows)

    @classmethod
    def from_rows(cls, ctx: PadicContext, den: int, rows) -> "Polynomial":
        """The polynomial with coefficient j = sum_t rows[t][j] pi^t / den."""
        return cls._of_series(TruncSeries.from_rows(ctx, den, rows))

    @classmethod
    def from_coeffs(cls, ctx: PadicContext, values) -> "Polynomial":
        return cls._of_series(TruncSeries.from_coeffs(ctx, values))

    @classmethod
    def zero(cls, ctx: PadicContext) -> "Polynomial":
        return cls._canonical(ctx, 1, [[] for _ in range(ctx.e)])

    @classmethod
    def one(cls, ctx: PadicContext) -> "Polynomial":
        return cls.monomial(ctx, 0)

    @classmethod
    def monomial(cls, ctx: PadicContext, degree: int) -> "Polynomial":
        rows = [[0] * (degree + 1) for _ in range(ctx.e)]
        rows[0][degree] = 1
        return cls._canonical(ctx, 1, rows)

    @classmethod
    def from_series_prefix(cls, f: TruncSeries, upto: int) -> "Polynomial":
        return cls.from_rows(f.ctx, f.den, [row[:upto] for row in f.rows])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Coefficients, built once."""
        view = self._view
        if view is None:
            view = self._view = tuple(
                _coefficient(self.den, col, self.ctx) for col in zip(*self.rows)
            )
        return view

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.rows[0]) - 1

    def is_zero(self) -> bool:
        return not self.rows[0]

    def vanishes_at_zero(self) -> bool:
        return not any(row[0] for row in self.rows if row)

    def __getitem__(self, j: int) -> Coefficient:
        return self.coeffs[j] if j <= self.degree else self.ctx.zero()

    def constant_term(self) -> Coefficient:
        return self[0]

    def _series(self, n=None) -> TruncSeries:
        """The coefficients as a series, padded with zeros to the order n
        when n is larger than their number."""
        rows = self.rows
        if n is not None and n > len(rows[0]):
            rows = [row + [0] * (n - len(row)) for row in rows]
        return TruncSeries._canonical(self.ctx, self.den, rows)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        rows = tuple(map(tuple, self.rows))
        return hash((self.den, rows, self.ctx.prime, self.ctx.ramification))

    def __add__(self, other):
        n = max(self.degree, other.degree) + 1
        return Polynomial._of_series(self._series(n) + other._series(n))

    def __sub__(self, other):
        n = max(self.degree, other.degree) + 1
        return Polynomial._of_series(self._series(n) - other._series(n))

    def __neg__(self):
        return Polynomial._canonical(self.ctx, self.den, [[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = self.degree + other.degree + 1
        return Polynomial._of_series(self._series(n) * other._series(n))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        return Polynomial._of_series(self._series() * self.ctx.coeff(c))

    def _times(self, den: int, c) -> "Polynomial":
        """This polynomial times the ring element c / den (TruncSeries._times)."""
        return Polynomial._of_series(self._series()._times(den, c))

    def derivative(self) -> "Polynomial":
        return Polynomial._of_series(self._series().d_dz())

    def subst_zpk(self, k: int) -> "Polynomial":
        """Substitute z -> z^(p^k)."""
        return Polynomial._of_series(self._series().subst_zpk(k))

    def to_series(self, order: int) -> TruncSeries:
        return self._series(order).truncate(order)

    def gauss_valuation(self):
        """min coefficient valuation; INF for the zero polynomial."""
        return self._series().min_valuation()

    def render(self) -> list:
        return [c.render() for c in self.coeffs]

    def __repr__(self):
        return f"Polynomial(coeffs={self.coeffs!r}, ctx={self.ctx!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            body = c.render()
            if ("+" in body[1:]) or ("-" in body[1:]):
                body = f"({body})"
            parts.append(body if j == 0 else f"{body}*z^{j}" if j > 1 else f"{body}*z")
        return " + ".join(parts)


def no_roots_in_open_unit_disc(b: Polynomial) -> bool:
    """Newton-polygon test: nonzero at 0 and every slope from the left end
    is >= 0, i.e. v(b_j) >= v(b_0) for all j. Exactly characterizes
    denominators admissible for the unit-disc rational ring."""
    if b.vanishes_at_zero():
        return False
    s = b._series()
    return s.min_valuation() == s.min_valuation(1)


def _integral_lead(polys, p):
    """[r, *cofactors] times adj(lead r) when that lead is not an integer,
    then divided by their integer content: at e > 1 the integers of make's
    chain grow exponentially without it."""
    r = polys[0]
    if r[0] and any(row[-1] for row in r[1:]):
        adj = _adjugate([row[-1] for row in r], p)[1]
        polys = [_scale(adj, poly, p) for poly in polys]
    return _primitive(*polys)


@dataclass(frozen=True)
class RationalFunction:
    """Reduced fraction of polynomials, denominator normalized to den(0) = 1
    when the constant term is a unit (always the case for certificates)."""

    num: Polynomial
    den: Polynomial

    @classmethod
    def make(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den in lowest terms, normalized by from_coprime: the primitive
        remainder sequence of the rows carries the cofactors of each
        remainder r = s*num + t*den, and its first zero remainder has s and t
        coprime, so num/den = -t/s, with no gcd and no division."""
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return cls.from_coprime(num, den)
        ctx, e, p = num.ctx, num.ctx.e, num.ctx.prime
        one, zero = [[1]] + [[0]] * (e - 1), [[]] * e
        # when deg num < deg den the first step only swaps the two
        prev, cur = [num.rows, one, zero], _integral_lead([den.rows, zero, one], p)
        while cur[0][0]:
            prev, cur = cur, _integral_lead(_pseudo_step(prev, cur, p), p)
        _, s, t = cur
        return cls.from_coprime(
            Polynomial.from_rows(ctx, num.den, [[-x for x in row] for row in t]),
            Polynomial.from_rows(ctx, den.den, s),
        )

    @classmethod
    def from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for a pair without a common factor: only normalizes, by
        den(0), or by the lowest nonzero coefficient when den(0) = 0."""
        s = den._series()
        d, inv = s._inverse_of(s.first_nonzero())
        return cls(num._times(d, inv), den._times(d, inv))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls(poly, Polynomial.one(poly.ctx))

    @classmethod
    def constant(cls, ctx: PadicContext, value) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.from_coeffs(ctx, [value]))

    @property
    def ctx(self) -> PadicContext:
        return self.den.ctx

    def gauss_valuation(self):
        if self.num.is_zero():
            return float("inf")
        return self.num.gauss_valuation() - self.den.gauss_valuation()

    def has_gauss_norm_one(self) -> bool:
        return self.gauss_valuation() == 0

    def denominator_unit_disc_free(self) -> bool:
        return no_roots_in_open_unit_disc(self.den)

    def to_series(self, order: int) -> TruncSeries:
        """The Taylor expansion mod z^order; needs den(0) != 0."""
        return self.num.to_series(order) * self.den.to_series(order).invert_unit()

    def derivative(self) -> "RationalFunction":
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RationalFunction.make(num, self.den * self.den)

    def divide(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction.make(self.num * other.den, self.den * other.num)

    def subst_zpk(self, k: int) -> "RationalFunction":
        return RationalFunction.make(self.num.subst_zpk(k), self.den.subst_zpk(k))

    def key(self):
        return (
            tuple(c.parts for c in self.num.coeffs),
            tuple(c.parts for c in self.den.coeffs),
        )

    def render(self) -> dict:
        return {"num": self.num.render(), "den": self.den.render()}

    def __str__(self):
        if self.den.degree <= 0:
            return str(self.num)
        return f"({self.num})/({self.den})"


# -- Pade reconstruction -----------------------------------------------------

VERIFY_OK = "ok"
VERIFY_FAIL = "fail"
VERIFY_NOT_K0 = "not-in-k0"


def pade_pairs(f: TruncSeries, window: int):
    """Extended Euclid on (z^window, f mod z^window), fraction-free.

    Yields (r, t) pairs with t*f = r mod z^window, in order of increasing
    denominator degree. The chain is a primitive pseudo-remainder sequence
    over Z[pi]/(pi^e + p) (Collins 1967, Brown-Traub 1971): the prefix's
    denominators are cleared once, and each new (r, t) pair from
    _pseudo_step is divided by its integer content. A yielded pair is a
    nonzero scalar multiple of the pair exact Euclid over the field gives at
    the same chain position (von zur Gathen-Gerhard, Modern Computer Algebra
    5.7). Consumers normalize by t(0). For an integral prefix whose
    coefficients share no integer factor the first pair is the truncation
    itself with t = 1.

    r and t hold the chain's own rows (over den = 1, so already canonical),
    which the chain only reads once they are yielded.
    """
    ctx = f.ctx
    e, p = ctx.e, ctx.prime
    # the prefix over the series' denominator: a multiple of the pair over
    # the prefix's own, which _primitive divides out
    cur = _primitive(_strip([row[:window] for row in f.rows]), [[f.den]] + [[0]] * (e - 1))
    prev = [[[0] * window + [1]] + [[0] * (window + 1)] * (e - 1), [[]] * e]
    pair = Polynomial._canonical
    yield pair(ctx, 1, cur[0]), pair(ctx, 1, cur[1])
    while cur[0][0]:
        prev, cur = cur, _primitive(*_pseudo_step(prev, cur, p))
        if cur[0][0]:
            yield pair(ctx, 1, cur[0]), pair(ctx, 1, cur[1])


class ResidueTarget:
    """A target series reduced into O_K/p^k = (Z/p^k)[pi]/(pi^e + p).

    k = ceil(m/e), so p^k lies in pi^m O_K and the ring sees everything a
    congruence mod pi^m can; k = 0 when m <= 0, where every congruence
    holds. Two integral values are congruent mod pi^m exactly when
    component i of their difference is divisible by
    thresholds[i] = p^ceil((m - i)/e). rows holds the target's first upto
    coefficients component-major, or is None when one of them is not
    integral (the screen then never applies). Built once per target, it
    serves every pair screened against it.
    """

    __slots__ = ("prime", "digits", "thresholds", "rows")

    def __init__(self, target: TruncSeries, m: int, upto: int):
        e, p = target.ctx.e, target.ctx.prime
        self.prime = p
        self.digits = max(0, -(-m // e))
        self.thresholds = tuple(p ** max(0, -((i - m) // e)) for i in range(e))
        rows = [row[:upto] for row in target.rows]
        self.rows = _residue_rows(target.den, rows, p, p**self.digits)


def _residue_rows(den, rows, p, mod):
    """Residues modulo mod, a power of p, of the integer rows over den, or
    None when one of the values rows[t][j] / den has p in its denominator."""
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k:
        pk = p**k
        if any(x % pk for row in rows for x in row):
            return None
        rows = [[x // pk for x in row] for row in rows]
    if den == 1:
        return [[x % mod for x in row] for row in rows]
    inv = pow(den, -1, mod)
    return [[x * inv % mod for x in row] for row in rows]


def admits_certificate(res: ResidueTarget, deg_bound: int) -> bool:
    """Whether some t = 1 + t_1 z + .. + t_D z^D over O_K, D = deg_bound,
    makes coefficients D+1 .. upto-1 of t*g vanish mod pi^m, for the target
    g and the level m of res (upto = len(res.rows[0])).

    Every certificate r/t that reconstruct_rational can accept against g has
    t(0) = 1, deg r and deg t <= D, and no root of t in the open unit disc,
    so t is integral and t*g = r mod (pi^m, z^upto). False therefore means
    that no such search can succeed. True (also for a non-integral target)
    promises nothing.

    The system is linear over Z/p^k, k = res.digits: the unknowns are the e
    pi-components of t_1..t_D, and the equation for component i of a
    coefficient, which holds mod thresholds[i], is scaled by
    p^k / thresholds[i] to hold mod p^k.
    """
    want = res.rows
    if want is None:
        return True
    p, thresholds = res.prime, res.thresholds
    e = len(thresholds)
    mod = p**res.digits
    rows, rhs = [], []
    for n in range(deg_bound + 1, len(want[0])):
        # the target coefficients that t_1..t_D meet at z^n
        cols = [[w[n - j] for w in want] for j in range(1, deg_bound + 1)]
        for i, thr in enumerate(thresholds):
            scale = mod // thr
            if scale == mod:
                continue
            # component i of pi^c g: g_(i-c), or -p g_(e+i-c) past pi^e
            rows.append([
                (g[i - c] if c <= i else -p * g[e + i - c]) * scale % mod
                for g in cols
                for c in range(e)
            ])
            rhs.append(-want[i][n] * scale % mod)
    return _solvable(rows, rhs, p, mod)


def _solvable(rows, rhs, p, mod):
    """Whether rows x = rhs has a solution over Z/mod, mod a power of p.

    Elimination that always pivots on an entry of least p-adic valuation,
    the Smith form over the chain ring Z/p^k: such a pivot p^v u clears its
    column from every other row with an integral multiplier, and its own
    equation is solvable exactly when p^v divides its right-hand side. The
    least valuation of the live entries never drops, so it is found by
    raising unit = p^v until some entry is not divisible by p * unit; once
    unit reaches mod every live entry is zero.
    """
    unit = 1
    while rows and unit < mod:
        step = unit * p
        hit = next(
            ((r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x % step), None
        )
        if hit is None:
            unit = step
            continue
        r, c = hit
        prow, pb = rows.pop(r), rhs.pop(r)
        if pb % unit:
            return False
        inv = pow(prow[c] // unit, -1, mod)
        for k, row in enumerate(rows):
            if row[c]:
                f = row[c] // unit * inv % mod
                rows[k] = [(x - f * y) % mod for x, y in zip(row, prow)]
                rhs[k] = (rhs[k] - f * pb) % mod
    return not any(rhs)


def _divide_by_pi(x, shift, q, p, mod):
    """x * pi^shift / p^q: x divided by X = p^q / pi^shift, an element of
    valuation v = e*q - shift, from residues mod p^K. The result holds mod
    p^(K - q). None when v(x) < v."""
    if shift:
        x = _ring_mul(x, [0] * shift + [1] + [0] * (len(x) - shift - 1), p)
    pq = p**q
    x = [v % mod for v in x]
    if any(v % pq for v in x):
        return None
    return [v // pq for v in x]


def _residue_screen(num, den, res: ResidueTarget, upto):
    """raw_congruence_check in the residue ring O_K/p^K.

    Let v0 = v(den(0)) and X = p^q / pi^shift with q = ceil(v0/e) and
    shift = e*q - v0, so v(X) = v0. Once num and den are divided by the unit
    den(0)/X, the quotient stream S = num/den obeys X S_n = R_n with
    R_n = num'[n] - sum_k den'[k] S_(n-k). A stream coefficient of negative
    valuation cannot match an integral target, so the check fails exactly
    when v(R_n) < v0. Dividing by X costs q p-adic digits of precision per
    coefficient, so K = k + (upto + 1) * q leaves the digits the comparison
    needs at the last one; at v0 = 0 this is the plain screen mod p^k. All
    reductions commute with the recurrence because num, den and the target
    are integral. Returns None (the caller falls back to exact arithmetic)
    when a coefficient is not integral.
    """
    p, thresholds, want = res.prime, res.thresholds, res.rows
    v0 = den._series().min_valuation(1)
    if want is None or not 0 <= v0 < math.inf:
        return None
    e = len(thresholds)
    q = -(-v0 // e)
    shift = e * q - v0
    mod = p ** (res.digits + (upto + 1) * q)
    dres = _residue_rows(den.den, den.rows, p, mod)
    nres = _residue_rows(num.den, num.rows, p, mod)
    if nres is None or dres is None:
        return None
    lead = [row[0] for row in dres]
    if q:
        lead = _divide_by_pi(lead, shift, q, p, mod)
    # divide through by the unit lead = den(0)/X, so that den'(0) = X; the
    # adjugate's r is prime to p, because it has left the chain primitive
    r, adj = _adjugate(lead, p)
    inv = [x * pow(r, -1, mod) % mod for x in adj]
    nres = _scale(inv, nres, p)
    nn = len(nres[0])
    dd = den.degree
    den_rev = _scale(inv, [row[dd:0:-1] for row in dres], p)
    out = [[] for _ in range(e)]
    # den'[k] S_(n-k) by components: component i of den' and j of S land in
    # component i + j, folded through pi^e = -p
    terms = [
        (drow, orow, i + j) if i + j < e else ([-p * x for x in drow], orow, i + j - e)
        for i, drow in enumerate(den_rev)
        for j, orow in enumerate(out)
    ]
    checks = list(zip(out, want, thresholds))
    mul = operator.mul
    for n in range(upto):
        lo, cut = (n - dd, 0) if n > dd else (0, dd - n)
        s = [row[n] for row in nres] if n < nn else [0] * e
        for drow, orow, k in terms:
            s[k] -= sum(map(mul, drow[cut:], orow[lo:n]))
        if q:
            s = _divide_by_pi(s, shift, q, p, mod)
            if s is None:
                return False
        for (row, wrow, thr), v in zip(checks, s):
            v %= mod
            if (v - wrow[n]) % thr:
                return False
            row.append(v)
    return True


def raw_congruence_check(num, den, target, m, upto, residues=None) -> bool:
    """Congruence screen on an unreduced (num, den) pair.

    Equivalent to the congruence part of congruence_outcome (the pair and
    its reduced form expand to the same series), but skips the reduction,
    so it is the cheap first look at a Pade pair. It runs in a residue ring
    O_K/p^K (_residue_screen) when num, den and the target are integral,
    and as the exact check (_congruent) otherwise. residues is
    ResidueTarget(target, m, upto), passed by callers that screen many
    pairs against one target so that the target is reduced only once.
    """
    if 0 < m < 4096:
        if residues is None:
            residues = ResidueTarget(target, m, upto)
        fast = _residue_screen(num, den, residues, upto)
        if fast is not None:
            return fast
    return _congruent(num, den, target, m, upto)


def reconstruct_rational(
    target: TruncSeries, m: int, deg_bound: int, what: str, mult=None, require_norm_one=False
):
    """The certificate search: R with R * mult = target mod pi^m on the
    target's window (R = target when mult is None), deg num and deg den
    <= deg_bound, no pole in the open unit disc, and Gauss norm one when
    require_norm_one. Returns R with residual_valuation(R, target, mult).

    The Pade sweep runs on g = target / mult, then on canonical_lift(g, m)
    when g is integral; the first candidate to verify is returned. A pair is
    screened in the residue ring (raw_congruence_check) when the screen
    decides the congruence exactly: g integral, 0 < m < 4096, and mult
    either None or integral with a unit constant term, so that mult and its
    inverse are integral and R * mult = target holds mod pi^m exactly when
    R = g does. The candidates that pass are verified by congruence_outcome
    or product_congruence_outcome. Raises NotInK0 if candidates matched the
    congruence but only ever failed the unit-disc test, else
    ReconstructionFailed.
    """
    upto = target.order
    g = target if mult is None else target * mult.invert_unit()
    integral = g.min_valuation() >= 0
    sources = [g, canonical_lift(g, m)] if integral else [g]
    screened = integral and 0 < m < 4096
    if mult is not None:
        screened = screened and mult.min_valuation() == mult.min_valuation(1) == 0
    residues = ResidueTarget(g, m, upto) if screened else None
    seen = set()
    saw_k0_reject = False
    for src in sources:
        max_window = min(2 * deg_bound + 1, src.order)
        for window in range(1, max_window + 1):
            for r, t in pade_pairs(src, window):
                if t.degree > deg_bound:
                    break  # denominator degrees only grow along the pairs
                if r.degree > deg_bound:
                    continue
                if t.vanishes_at_zero():
                    continue
                if residues is not None and not raw_congruence_check(r, t, g, m, upto, residues):
                    continue
                # t(0) != 0 makes the pair coprime: a common factor would
                # divide z^window (extended Euclid), and z does not divide t
                cand = RationalFunction.from_coprime(r, t)
                if cand in seen:
                    continue
                seen.add(cand)
                if mult is None:
                    outcome = congruence_outcome(cand, target, m, upto, require_norm_one)
                else:
                    outcome = product_congruence_outcome(
                        cand, mult, target, m, upto, require_norm_one
                    )
                if outcome == VERIFY_OK:
                    return cand, residual_valuation(cand, target, mult)
                if outcome == VERIFY_NOT_K0:
                    saw_k0_reject = True
    if saw_k0_reject:
        raise NotInK0(f"{what}: congruence held but a denominator root lies in the open unit disc")
    raise ReconstructionFailed(
        f"{what}: no certificate of degree <= {deg_bound}", deg_bound=deg_bound
    )


def residual_valuation(cand, target, mult=None):
    """The least valuation of cand * mult - target (cand - target when mult
    is None) on the target's window; INF when cand is exact there."""
    upto = target.order
    s = cand.to_series(upto)
    if mult is not None:
        s = s * mult.truncate(upto)
    return (s - target.truncate(upto)).min_valuation()


def _congruent(num, den, target, m, upto, mult=None) -> bool:
    """The exact check: num/den, times the series mult when one is given,
    agrees with target mod pi^m on the first upto coefficients. The
    quotient is expanded on the series rows; den(0) must be nonzero.

    A Pade candidate matches by construction only the window it came
    from, about deg num + deg den + 1 coefficients, so twice that prefix is
    checked first and rejects most candidates at a fraction of the cost.
    """
    for n in sorted({min(upto, 2 * (num.degree + den.degree + 2)), upto}):
        s = num.to_series(n) * den.to_series(n).invert_unit()
        if mult is not None:
            s = s * mult
        if s.first_discrepancy(target, m, n) is not None:
            return False
    return True


def _outcome(cand, mult, target, m, upto, require_norm_one):
    if cand.den.vanishes_at_zero() or not _congruent(cand.num, cand.den, target, m, upto, mult):
        return VERIFY_FAIL
    if require_norm_one and not cand.has_gauss_norm_one():
        return VERIFY_FAIL
    if not cand.denominator_unit_disc_free():
        return VERIFY_NOT_K0
    return VERIFY_OK


def congruence_outcome(cand, target, m, upto, require_norm_one):
    """Shared verification: the exact congruence on the window, then the
    Gauss norm (when required) and the poles."""
    return _outcome(cand, None, target, m, upto, require_norm_one)


def product_congruence_outcome(cand, mult, target, m, upto, require_norm_one):
    """Verification for congruences of the shape cand * mult = target, with
    the same contract as congruence_outcome."""
    return _outcome(cand, mult, target, m, upto, require_norm_one)


def canonical_lift(f: TruncSeries, m: int) -> TruncSeries:
    """Coefficientwise canonical residue representative mod pi^m, the one
    Coefficient.reduce_mod gives: component t reduced into [0, p^k) with
    k = ceil((m - t)/e).

    Exposes rational structure that only exists modulo pi^m; used as the
    second Pade source. Requires integral coefficients.
    """
    if m < 1:
        raise BadParameters("level must be >= 1")
    if f.min_valuation() < 0:
        # the first prefix of negative valuation ends at the coefficient named
        v = next(v for v in map(f.min_valuation, range(1, f.order + 1)) if v < 0)
        raise NegativeValuation(f"valuation {v} < 0")
    e, p = f.ctx.e, f.ctx.prime
    rows = []
    for t, row in enumerate(f.rows):
        k = -((t - m) // e)
        rows.append(_residue_rows(f.den, [row], p, p**k)[0] if k > 0 else [0] * len(row))
    return TruncSeries.from_rows(f.ctx, 1, rows)
