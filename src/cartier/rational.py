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
ring elements (rings._adjugate).

One product decides every candidate r/t. A t without a root in the open
unit disc is t(0) times a unit of O_K[[z]] mod z^upto, so r/t * mult =
target mod pi^m exactly when v(r * mult - t * target) - v(t(0)) >= m, with
no division and no series inverse. A search screens each pair by that
product in the residue ring O_K/p^k = (Z/p^k)[pi]/(pi^e + p)
(raw_congruence_check) wherever t(0) is a unit and the target is integral;
the survivors pass one exact check (_residual) whose least valuation
decides (>= m) and is reported. A pair whose t has a root in the disc can
never be accepted, so it is set aside and tested only when nothing
verifies, to tell NotInK0 from ReconstructionFailed.

The scan starts each sweep at least_window, the least window that can
hold a certificate (one Howell elimination mod p^k), and skips a search
that no window can serve.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameters, NegativeValuation, NotInK0, ReconstructionFailed
from .rings import INF, Coefficient, PadicContext, record
from .rings import _adjugate, _component_digits, _p_adic_order, _primitive, _pseudo_step
from .rings import _scale, _strip
from .series import IntegerRows, TruncSeries, _fold, _mul_add, _unfolded


class Polynomial(IntegerRows):
    """A dense polynomial in the row form it shares with TruncSeries
    (series.IntegerRows): coefficient j is sum_t rows[t][j] pi^t / den,
    canonical, with a nonzero top column, so equal polynomials have equal
    rows and the zero polynomial has empty rows. The base class holds the
    Coefficient view, equality, hashing, negation and the valuations.

    Arithmetic pads the operands to the length of the result and runs the
    series operation on them; a product of lengths la and lb is exact as a
    series truncated to la + lb - 1. The coeffs view serves indexing and
    rendering; no computation reads it.
    """

    __slots__ = ()

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

    def __add__(self, other):
        n = max(self.degree, other.degree) + 1
        return Polynomial._of_series(self._series(n) + other._series(n))

    def __sub__(self, other):
        n = max(self.degree, other.degree) + 1
        return Polynomial._of_series(self._series(n) - other._series(n))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = self.degree + other.degree + 1
        return Polynomial._of_series(self._series(n) * other._series(n))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        return Polynomial._of_series(self._series().scale(c))

    def _times(self, den: int, c) -> "Polynomial":
        """This polynomial times the ring element c / den (SeriesRows._times)."""
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
        return self.min_valuation()

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
    return b.min_valuation() == b.min_valuation(1)


def _integral_lead(polys, p):
    """[r, *cofactors] times adj(lead r) when that lead is not an integer,
    then divided by their integer content: at e > 1 the integers of make's
    chain grow exponentially without it."""
    r = polys[0]
    if r[0] and any(row[-1] for row in r[1:]):
        adj = _adjugate([row[-1] for row in r], p)[1]
        polys = [_scale(adj, poly, p) for poly in polys]
    return _primitive(*polys)


@record
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
        d, inv = den._inverse_of(den.first_nonzero())
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
        self.digits = max(0, _component_digits(m, 0, e))
        self.thresholds = tuple(p ** max(0, _component_digits(m, i, e)) for i in range(e))
        rows = [row[:upto] for row in target.rows]
        self.rows = _residue_rows(target.den, rows, p, p**self.digits)


def _residue_rows(den, rows, p, mod):
    """Residues modulo mod, a power of p, of the integer rows over den, or
    None when one of the values rows[t][j] / den has p in its denominator."""
    k = _p_adic_order(den, p)
    if k:
        pk = p**k
        if any(x % pk for row in rows for x in row):
            return None
        den //= pk
        rows = [[x // pk for x in row] for row in rows]
    if den == 1:
        return [[x % mod for x in row] for row in rows]
    inv = pow(den, -1, mod)
    return [[x * inv % mod for x in row] for row in rows]


def least_window(res: ResidueTarget, deg_bound: int):
    """The least Pade window s = 1 + min(a + b) over the degree bounds
    0 <= a, b <= D = deg_bound for which some t = 1 + t_1 z + .. + t_b z^b
    over O_K makes coefficients a+1 .. upto-1 of t*g vanish mod pi^m, for
    the target g and the level m of res (upto = len(res.rows[0])); None
    when no such (a, b) exists, and 1 for a non-integral target.

    A certificate r/t that reconstruct_rational accepts against g has
    t(0) = 1 and no root of t in the open unit disc, so t is integral and
    (deg r, deg t) is such a pair. A Pade pair from window W has
    deg r + deg t <= W - 1, so no window below s yields a certificate, and
    None means that the search cannot succeed.

    The system is linear over Z/p^k, k = res.digits: the unknowns are the e
    pi-components of t_1..t_D, and the equation for component i of a
    coefficient, which holds mod thresholds[i], is scaled by
    p^k / thresholds[i] to hold mod p^k. The columns are t_1's components,
    then t_2's, .., t_D's, then the target column y. Z/p^k is
    self-injective, so the system restricted to t_1..t_b is solvable
    exactly when no vector of the row span is zero on t_1..t_b with a
    nonzero y entry. In a Howell form (_howell_insert) the row-span vectors
    that are zero on the first c columns are spanned by the rows whose
    pivot column is c or later, so the least feasible b is the largest
    block of a pivot whose row has a nonzero y entry (D + 1 for a pivot on
    y). The equations of coefficient n = upto-1 go in first, then n - 1 and
    so on: with the rows n > a in, that block is the least b for a. It
    never decreases as a does, so the walk stops once it exceeds D or no
    smaller a can give a smaller window.
    """
    want = res.rows
    if want is None:
        return 1
    p, thresholds = res.prime, res.thresholds
    e = len(thresholds)
    mod = p**res.digits
    upto = len(want[0])
    # one sequence per component i that does not hold mod 1: for q = upto-1
    # down to 0, component i of pi^c g_q for c = 0..e-1, scaled (g_q[i-c],
    # or -p g_q[e+i-c] past pi^e, where want[i - c] counts from the end).
    # The t_1 .. t_D part of the row of coefficient n, against g_(n-1) ..
    # g_(n-D), is its slice from (upto - n) e; ys holds the scaled g_n[i]
    flats = []
    for i, thr in enumerate(thresholds):
        if thr > 1:
            flat = [0] * (upto * e)
            for c in range(e):
                f = mod // thr if c <= i else -p * (mod // thr)
                flat[c::e] = [x * f % mod for x in reversed(want[i - c])]
            flats.append(flat)
    ys = [[x * (mod // thr) % mod for x in row] for row, thr in zip(want, thresholds) if thr > 1]
    width = deg_bound * e
    pivots = [None] * (width + 1)
    best = None
    last = upto  # the equations of coefficients last .. upto-1 are in
    for a in range(max(0, min(deg_bound, upto - 1)), -1, -1):
        for n in range(last - 1, a, -1):
            at = (upto - n) * e
            pad = [0] * (e * (deg_bound - n))  # empty once n >= D
            for flat, y in zip(flats, ys):
                row = flat[at : at + width]
                row += pad
                row.append(y[n])
                _howell_insert(pivots, row, p, mod)
            if pivots[width] is not None:
                return best
        last = a + 1
        b = max((c // e + 1 for c, piv in enumerate(pivots[:width]) if piv and piv[1][-1]),
                default=0)
        if best is None or a + b + 1 < best:
            best = a + b + 1
        if b + 1 >= best:
            break
    return best


def _howell_insert(pivots, row, p, mod):
    """Add row to the span of pivots, a Howell form over Z/mod, mod a power
    of p (Storjohann-Mulders, "Fast algorithms for linear algebra modulo
    N", ESA 1998).

    pivots[c] is None or (p^v, tail): the row is zero before c, p^v at c,
    and tail holds its columns after c. A row is reduced by the pivots of
    its leading columns; where its leading entry has a smaller valuation
    than the pivot there (it is not a multiple of p^v) or no pivot is there,
    it becomes the pivot, normalized by the unit part of that entry, and the
    row it replaces is reduced by it and inserted again. Each new pivot p^v,
    v > 0, also inserts p^(k-v) times its row, which vanishes at column c:
    that saturation is what makes the rows with pivot columns >= c span
    every row-span vector that is zero before c.
    """
    stack = [(0, row)]
    while stack:
        c, row = stack.pop()
        # row holds the columns from c on, reduced mod mod
        k, n = 0, len(row)
        while True:
            while k < n and not row[k]:
                k += 1
            if k == n:
                break
            c += k
            x = row[k]
            piv = pivots[c]
            if piv is not None and x % piv[0] == 0:
                f = x // piv[0]
                row = [(y - f * z) % mod for y, z in zip(row[k + 1 :], piv[1])]
                c, k, n = c + 1, 0, n - k - 1
                continue
            pv = 1
            while x % p == 0:
                x //= p
                pv *= p
            inv = pow(x, -1, mod)
            tail = [y * inv % mod for y in row[k + 1 :]]
            pivots[c] = (pv, tail)
            if pv > 1:
                lift = mod // pv
                stack.append((c + 1, [y * lift % mod for y in tail]))
            if piv is not None:
                f = piv[0] // pv
                stack.append((c + 1, [(y - f * z) % mod for y, z in zip(piv[1], tail)]))
            break


def _residue_screen(num, den, res: ResidueTarget, upto):
    """raw_congruence_check in the residue ring O_K/p^k, k = res.digits.

    For integral num and den with den(0) a unit, den is a unit of
    O_K[[z]] mod z^upto, so num/den = g mod pi^m exactly when
    num = den * g mod pi^m: one truncated product, compared with num
    component by component under res.thresholds. All reductions mod p^k
    commute with it because num, den and the target are integral. den(0) is
    a unit exactly when its pi^0 component is prime to p. Returns None (the
    caller falls back to the exact check) in every other case.
    """
    p, want = res.prime, res.rows
    if want is None:
        return None
    mod = p**res.digits
    nres = _residue_rows(num.den, num.rows, p, mod)
    dres = _residue_rows(den.den, den.rows, p, mod)
    if nres is None or dres is None or dres[0][0] % p == 0:
        return None
    ctx = den.ctx
    acc = _unfolded(ctx, upto)
    _mul_add(acc, dres, want)
    pad = [0] * max(0, upto - len(nres[0]))
    for nrow, prow, thr in zip(nres, _fold(acc, ctx), res.thresholds):
        if any((x - y) % thr for x, y in zip(nrow[:upto] + pad, prow)):
            return False
    return True


def raw_congruence_check(num, den, target, m, upto, residues=None) -> bool:
    """Whether num/den = target mod pi^m on the first upto coefficients,
    for an unreduced pair with den(0) != 0.

    It is the congruence part of congruence_outcome (the pair and its
    reduced form expand to the same series) without the reduction, so it is
    the cheap first look at a Pade pair. It runs in the residue ring
    (_residue_screen) when num, den and the target are integral and den(0)
    is a unit, and as the exact check (_residual) otherwise. residues is
    ResidueTarget(target, m, upto), passed by callers that screen many
    pairs against one target so that the target is reduced only once.
    """
    if m > 0:
        if residues is None:
            residues = ResidueTarget(target, m, upto)
        fast = _residue_screen(num, den, residues, upto)
        if fast is not None:
            return fast
    return _residual(RationalFunction(num, den), target, upto) >= m


def reconstruct_rational(
    target: TruncSeries,
    m: int,
    deg_bound: int,
    what: str,
    mult=None,
    require_norm_one=False,
    residues=None,
    first_window=1,
    *,
    _found_in=None,
):
    """The certificate search: R with R * mult = target mod pi^m on the
    target's window (R = target when mult is None), deg num and deg den
    <= deg_bound, no pole in the open unit disc, and Gauss norm one when
    require_norm_one, for m >= 1 and deg_bound >= 0. Returns R and the least
    valuation of R * mult - target on the window.

    The Pade sweep runs on g = target / mult, then on canonical_lift(g, m),
    built only when g is integral and its sweep returns nothing; the first
    candidate to verify is returned. A pair is screened in the residue ring
    (raw_congruence_check) when the screen decides the congruence exactly: g
    integral and mult either None or integral with a unit constant term, so
    that mult and its inverse are integral and R * mult = target holds mod
    pi^m exactly when R = g does. Candidates left are verified by
    congruence_outcome or product_congruence_outcome, which expand no
    inverse for a denominator without a pole. A pair whose t has a root in
    the open unit disc can only fail or give NotInK0, so it is set aside:
    only when nothing verifies is each one tested, first by the necessary
    v(r * mult - t * target) >= m (t is integral), then by the outcome.
    Raises NotInK0 if one of them matched the congruence, else
    ReconstructionFailed. residues is ResidueTarget(target, m, target.order)
    with mult None, passed by a caller that has reduced the target already;
    it is read only when the screen runs.

    Both sources are swept from window first_window. The scan passes
    least_window(residues, deg_bound) there (mult None): no window below it
    yields a certificate, so the search returns what the sweep from window
    1 returns, except that it may fail with ReconstructionFailed where that
    sweep raises NotInK0, because a pole pair below the window can meet the
    congruence. The certify-* commands report the two apart and keep
    window 1.

    _found_in, a list that only the scan's dependence._certificate passes,
    receives the index of the source that gave the certificate: 0 for g,
    1 for its canonical lift.
    """
    if m < 1:
        raise BadParameters("level must be >= 1")
    if deg_bound < 0:
        raise BadParameters(f"degree bound must be >= 0, got {deg_bound}")
    upto = target.order
    g = target if mult is None else target * mult.invert_unit()
    integral = g.min_valuation() >= 0
    unit = mult is None or mult.min_valuation() == mult.min_valuation(1) == 0
    if not (integral and unit):
        residues = None
    elif residues is None:
        residues = ResidueTarget(g, m, upto)

    def outcome(cand):
        if mult is None:
            return congruence_outcome(cand, target, m, upto, require_norm_one)
        return product_congruence_outcome(cand, mult, target, m, upto, require_norm_one)

    def sources():
        yield g
        if integral:
            yield canonical_lift(g, m)

    seen = set()
    poles = []
    for index, src in enumerate(sources()):
        max_window = min(2 * deg_bound + 1, src.order)
        for window in range(first_window, max_window + 1):
            for r, t in pade_pairs(src, window):
                if t.degree > deg_bound:
                    break  # denominator degrees only grow along the pairs
                if r.degree > deg_bound or t.vanishes_at_zero():
                    continue
                if not no_roots_in_open_unit_disc(t):
                    poles.append((r, t))
                    continue
                if residues is not None and not raw_congruence_check(r, t, g, m, upto, residues):
                    continue
                # t(0) != 0 makes the pair coprime: a common factor would
                # divide z^window (extended Euclid), and z does not divide t
                cand = RationalFunction.from_coprime(r, t)
                if cand in seen:
                    continue
                seen.add(cand)
                verdict, resid = outcome(cand)
                if verdict == VERIFY_OK:
                    if _found_in is not None:
                        _found_in.append(index)
                    return cand, resid
    for r, t in poles:
        if _product_valuation(r, t, target, upto, mult) < m:
            continue
        cand = RationalFunction.from_coprime(r, t)
        if cand in seen:
            continue
        seen.add(cand)
        if outcome(cand)[0] == VERIFY_NOT_K0:
            raise NotInK0(
                f"{what}: congruence held but a denominator root lies in the open unit disc"
            )
    raise ReconstructionFailed(
        f"{what}: no certificate of degree <= {deg_bound}", deg_bound=deg_bound
    )


def _product_valuation(num, den, target, upto, mult=None):
    """The least valuation of num * mult - den * target (num - den * target
    when mult is None) on the first upto coefficients, INF when it vanishes
    there."""
    s = num.to_series(upto)
    if mult is not None:
        s = s * mult.truncate(upto)
    return (s - den.to_series(upto) * target.truncate(upto)).min_valuation()


def _residual(cand, target, upto, mult=None):
    """The least valuation of cand * mult - target (cand - target when mult
    is None) on the first upto coefficients, INF when it vanishes there;
    cand has no pole at 0. The congruence mod pi^m holds exactly when this
    is >= m, for every m.

    When no coefficient of den below z^upto has a smaller valuation v0 than
    den(0), den / den(0) is a unit of O_K[[z]] mod z^upto, and multiplying
    by it keeps the least valuation: the residual is then
    v(num * mult - den * target) - v0, with no series inverse. Only a
    denominator with a pole in the open unit disc is expanded."""
    den = cand.den.to_series(upto)
    v0 = den.min_valuation(1)
    if den.min_valuation() == v0 < INF:
        return _product_valuation(cand.num, cand.den, target, upto, mult) - v0
    # a pole: cand itself expanded, over the denominator 1
    return _product_valuation(cand, Polynomial.one(cand.ctx), target, upto, mult)


def _outcome(cand, mult, target, m, upto, require_norm_one):
    if cand.den.vanishes_at_zero():
        return VERIFY_FAIL, None
    resid = _residual(cand, target, upto, mult)
    if resid < m or (require_norm_one and not cand.has_gauss_norm_one()):
        return VERIFY_FAIL, resid
    if not cand.denominator_unit_disc_free():
        return VERIFY_NOT_K0, resid
    return VERIFY_OK, resid


def congruence_outcome(cand, target, m, upto, require_norm_one):
    """Shared verification: the exact congruence on the window, then the
    Gauss norm (when required) and the poles. Returns the outcome and
    cand's _residual on the window, None when cand has a pole at 0."""
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
    j = f.first_nonintegral(f.order)
    if j is not None:
        raise NegativeValuation(f"valuation {f.min_valuation(j + 1, j)} < 0")
    e, p = f.ctx.e, f.ctx.prime
    rows = []
    for t, row in enumerate(f.rows):
        k = _component_digits(m, t, e)
        rows.append(_residue_rows(f.den, [row], p, p**k)[0] if k > 0 else [0] * len(row))
    return TruncSeries.from_rows(f.ctx, 1, rows)
