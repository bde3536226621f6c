"""Polynomials and rational functions over a p-adic context, plus the Pade
reconstruction engine used by every certificate search.

The certificate story is always the same: some truncated series is supposed
to be congruent, modulo pi^m, to a rational function with controlled degrees
and no poles in the open unit disc. Candidates come from the extended
Euclidean algorithm run on (z^T, first T coefficients); each candidate is
then re-verified against the full reliable window, never trusted. Windows
are tried smallest first so the least complex certificate wins and the
result is deterministic.

One fraction-free path serves every context, unramified (e = 1) or
ramified (e > 1). The Euclid chain is a primitive pseudo-remainder sequence
on integer pi-component vectors of Z[pi]/(pi^e + p) (pade_pairs). A pair is
first screened in the residue ring O_K/p^K = (Z/p^K)[pi]/(pi^e + p)
(raw_congruence_check), which falls back to exact arithmetic only for
non-integral input. A pair with t(0) != 0 is already in lowest terms, so
a candidate is only normalized by t(0), without a gcd; the survivors are
verified exactly by congruence_outcome.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, NegativeValuation, NotInK0, ReconstructionFailed
from .rings import Coefficient, PadicContext
from .series import TruncSeries


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; coeffs[j] is the z^j coefficient, no trailing zeros."""

    coeffs: tuple
    ctx: PadicContext

    @classmethod
    def from_coeffs(cls, ctx: PadicContext, values) -> "Polynomial":
        coeffs = [ctx.coeff(v) for v in values]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return cls(tuple(coeffs), ctx)

    @classmethod
    def zero(cls, ctx: PadicContext) -> "Polynomial":
        return cls((), ctx)

    @classmethod
    def one(cls, ctx: PadicContext) -> "Polynomial":
        return cls((ctx.one(),), ctx)

    @classmethod
    def monomial(cls, ctx: PadicContext, degree: int) -> "Polynomial":
        return cls((ctx.zero(),) * degree + (ctx.one(),), ctx)

    @classmethod
    def from_series_prefix(cls, f: TruncSeries, upto: int) -> "Polynomial":
        return cls.from_coeffs(f.ctx, f.coeffs[:upto])

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, j: int) -> Coefficient:
        if j >= len(self.coeffs):
            return self.ctx.zero()
        return self.coeffs[j]

    def constant_term(self) -> Coefficient:
        return self[0]

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.from_coeffs(
            self.ctx, [self[j] + other[j] for j in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.from_coeffs(
            self.ctx, [self[j] - other[j] for j in range(n)]
        )

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs), self.ctx)

    def __mul__(self, other):
        if isinstance(other, Coefficient):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.ctx)
        out = [self.ctx.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Polynomial.from_coeffs(self.ctx, out)

    def scale(self, c) -> "Polynomial":
        c = self.ctx.coeff(c)
        return Polynomial.from_coeffs(self.ctx, [c * a for a in self.coeffs])

    def divmod(self, other):
        """Euclidean division; coefficients form a field so this is exact."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead_inv = other.coeffs[-1].inverse()
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(self.ctx), self
        quot = [self.ctx.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * lead_inv
            if not c.is_zero():
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return (
            Polynomial.from_coeffs(self.ctx, quot),
            Polynomial.from_coeffs(self.ctx, rem),
        )

    def gcd(self, other) -> "Polynomial":
        """Monic gcd via Euclid."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.scale(a.coeffs[-1].inverse())

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            self.ctx, [c * j for j, c in enumerate(self.coeffs)][1:]
        )

    def subst_zpk(self, k: int) -> "Polynomial":
        """Substitute z -> z^(p^k)."""
        if k == 0 or self.is_zero():
            return self
        q = self.ctx.prime**k
        out = [self.ctx.zero()] * (self.degree * q + 1)
        for j, c in enumerate(self.coeffs):
            out[j * q] = c
        return Polynomial.from_coeffs(self.ctx, out)

    def to_series(self, order: int) -> TruncSeries:
        head = TruncSeries(self.coeffs[:order], self.ctx)
        pad = [0] * (order - head.order)
        return TruncSeries.from_rows(self.ctx, head.den, [row + pad for row in head.rows])

    def gauss_valuation(self):
        """min coefficient valuation; INF for the zero polynomial."""
        return min((c.valuation() for c in self.coeffs), default=float("inf"))

    def render(self) -> list:
        return [c.render() for c in self.coeffs]

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
    if b.is_zero() or b.constant_term().is_zero():
        return False
    v0 = b.constant_term().valuation()
    return all(c.valuation() >= v0 for c in b.coeffs)


@dataclass(frozen=True)
class RationalFunction:
    """Reduced fraction of polynomials, denominator normalized to den(0) = 1
    when the constant term is a unit (always the case for certificates)."""

    num: Polynomial
    den: Polynomial

    @classmethod
    def make(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        return cls.from_coprime(num, den)

    @classmethod
    def from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for a pair without a common factor: only normalizes, by
        den(0), or by the lowest nonzero coefficient when den(0) = 0."""
        c = den.constant_term()
        if c.is_zero():
            c = next(x for x in den.coeffs if not x.is_zero())
        inv = c.inverse()
        return cls(num.scale(inv), den.scale(inv))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls(poly, Polynomial.one(poly.ctx))

    @classmethod
    def constant(cls, ctx: PadicContext, value) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.from_coeffs(ctx, [value]))

    @property
    def ctx(self) -> PadicContext:
        return self.num.ctx if not self.num.is_zero() else self.den.ctx

    def gauss_valuation(self):
        if self.num.is_zero():
            return float("inf")
        return self.num.gauss_valuation() - self.den.gauss_valuation()

    def has_gauss_norm_one(self) -> bool:
        return self.gauss_valuation() == 0

    def denominator_unit_disc_free(self) -> bool:
        return no_roots_in_open_unit_disc(self.den)

    def series_coefficients(self):
        """Stream the Taylor coefficients via den * S = num; needs den(0) != 0."""
        d0 = self.den.constant_term()
        if d0.is_zero():
            raise ZeroDivisionError("denominator vanishes at 0")
        inv = d0.inverse()
        out = []
        n = 0
        while True:
            s = self.num[n]
            for k in range(1, min(n, self.den.degree) + 1):
                s = s - self.den[k] * out[n - k]
            value = inv * s
            out.append(value)
            yield value
            n += 1

    def to_series(self, order: int) -> TruncSeries:
        gen = self.series_coefficients()
        return TruncSeries(tuple(next(gen) for _ in range(order)), self.den.ctx)

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

# The Pade chain and the residue screen run on plain ints. An element of
# Z[pi]/(pi^e + p) is a list of its e pi-components, and a polynomial over
# that ring is stored component-major: e int lists of one common length,
# list i holding component i of every z-coefficient. At e = 1 each ring
# operation below is one int operation per coefficient of a single list.


def _terms(c, rows, p):
    """c * rows as (component, factor, row) terms: component i of c times
    row j lands in component i + j, folded through pi^e = -p."""
    e = len(rows)
    return [
        (i + j, ci, row) if i + j < e else (i + j - e, -p * ci, row)
        for i, ci in enumerate(c)
        if ci
        for j, row in enumerate(rows)
    ]


def _scale(c, rows, p):
    """The polynomial rows times the ring element c."""
    if len(rows) == 1:
        return [[c[0] * x for x in rows[0]]]
    out = [None] * len(rows)
    for k, f, row in _terms(c, rows, p):
        prev = out[k]
        out[k] = [f * x for x in row] if prev is None else [u + f * x for u, x in zip(prev, row)]
    return [[0] * len(rows[0]) if row is None else row for row in out]


def _ring_mul(a, b, p):
    """Product of two elements of Z[pi]/(pi^e + p)."""
    return [row[0] for row in _scale(a, [[x] for x in b], p)]


def _rowop(a, acc, c, shift, rows, p):
    """a*acc - c*z^shift*rows for ring elements a and c; acc must be long enough."""
    n = len(rows[0])
    if len(acc) == 1:
        out, f = [a[0] * x for x in acc[0]], c[0]
        out[shift:shift + n] = [u - f * x for u, x in zip(out[shift:shift + n], rows[0])]
        return [out]
    out = _scale(a, acc, p)
    for k, f, row in _terms(c, rows, p):
        dst = out[k]
        dst[shift:shift + n] = [u - f * x for u, x in zip(dst[shift:shift + n], row)]
    return out


def _strip(rows):
    """Drop the top z-degrees at which every component is zero."""
    if len(rows) == 1:
        row = rows[0]
        while row and not row[-1]:
            row.pop()
        return rows
    n = len(rows[0])
    while n and not any([row[n - 1] for row in rows]):
        n -= 1
    for row in rows:
        del row[n:]
    return rows


def _primitive(r, t):
    """Divide the (r, t) row pair by the gcd of all its integers."""
    g = math.gcd(*itertools.chain(*r, *t))
    if g > 1:
        r = [[x // g for x in row] for row in r]
        t = [[x // g for x in row] for row in t]
    return r, t


def _poly(ctx, rows) -> Polynomial:
    columns = zip(*[list(map(Fraction, row)) for row in rows])
    return Polynomial(tuple(Coefficient(parts, ctx) for parts in columns), ctx)


def pade_pairs(f: TruncSeries, window: int):
    """Extended Euclid on (z^window, f mod z^window), fraction-free.

    Yields (r, t) pairs with t*f = r mod z^window, in order of increasing
    denominator degree. The chain is a primitive pseudo-remainder sequence
    over Z[pi]/(pi^e + p) (Collins 1967, Brown-Traub 1971), the same for
    every ramification index: the prefix's denominators are cleared once,
    each step pseudo-divides by the leading ring element, and each new
    (r, t) row is divided by the integer content of all its components.
    A yielded pair is therefore a nonzero scalar multiple of the pair that
    exact Euclid over the field gives at the same chain position (von zur
    Gathen-Gerhard, Modern Computer Algebra 5.7), with integral
    coefficients whose common integer factors do not pile up along the
    chain. Consumers normalize by t(0). For an integral prefix whose
    coefficients share no integer factor the first pair is the truncation
    itself with t = 1.
    """
    ctx = f.ctx
    e, p = ctx.e, ctx.prime
    # the prefix over the series' denominator: a multiple of the pair over
    # the prefix's own, which _primitive divides out
    r_cur = _strip([row[:window] for row in f.rows])
    r_cur, t_cur = _primitive(r_cur, [[f.den]] + [[0] for _ in range(e - 1)])
    r_prev = [[0] * window + [1]] + [[0] * (window + 1) for _ in range(e - 1)]
    t_prev = [[] for _ in range(e)]
    if not r_cur[0]:
        yield _poly(ctx, r_cur), _poly(ctx, t_cur)
        return
    while r_cur[0]:
        yield _poly(ctx, r_cur), _poly(ctx, t_cur)
        deg = len(r_cur[0]) - 1
        lead = [row[deg] for row in r_cur]
        shift = len(r_prev[0]) - 1 - deg
        # pseudo-division of r_prev by r_cur, with the same row ops on the
        # cofactor: (rem, t) <- lead*(rem, t) - c*z^k*(r_cur, t_cur). The top
        # coefficient of r_prev is nonzero, so k = shift always acts.
        rem = r_prev
        width = max(len(t_prev[0]), shift + len(t_cur[0]))
        t_new = [row + [0] * (width - len(row)) for row in t_prev]
        for k in range(shift, -1, -1):
            c = [row[k + deg] for row in rem]
            if any(c):
                rem = _rowop(lead, rem, c, k, r_cur, p)
                t_new = _rowop(lead, t_new, c, k, t_cur, p)
        r_prev, t_prev = r_cur, t_cur
        r_cur, t_cur = _primitive(_strip(rem), _strip(t_new))


class ResidueTarget:
    """A target series reduced into O_K/p^k = (Z/p^k)[pi]/(pi^e + p).

    k = ceil(m/e), so p^k lies in pi^m O_K and the ring sees everything a
    congruence mod pi^m can. Two integral values are congruent mod pi^m
    exactly when component i of their difference is divisible by
    thresholds[i] = p^ceil((m - i)/e). rows holds the target's first upto
    coefficients component-major, or is None when one of them is not
    integral (the screen then never applies). Built once per target, it
    serves every pair screened against it.
    """

    __slots__ = ("prime", "digits", "thresholds", "rows")

    def __init__(self, target: TruncSeries, m: int, upto: int):
        e, p = target.ctx.e, target.ctx.prime
        self.prime = p
        self.digits = -(-m // e)
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


def _poly_residues(poly: Polynomial, p, mod):
    """Component-major residues of a polynomial's coefficients modulo mod,
    or None when a component has p in its denominator."""
    rows = []
    for i in range(poly.ctx.e):
        row = []
        for c in poly.coeffs:
            x = c.parts[i]
            d = x.denominator
            if d == 1:
                row.append(x.numerator % mod)
            elif d % p:
                row.append(x.numerator * pow(d, -1, mod) % mod)
            else:
                return None
        rows.append(row)
    return rows


def _unit_inverse(d, p, mod):
    """Inverse of a unit d of (Z/mod)[pi]/(pi^e + p): Newton iteration
    x <- x(2 - dx) from x = 1/d_0, which doubles the pi-adic precision of
    dx = 1 at each step."""
    one = [1] + [0] * (len(d) - 1)
    x = [pow(d[0], -1, mod)] + one[1:]
    if not any(d[1:]):
        return x
    while True:
        dx = [v % mod for v in _ring_mul(d, x, p)]
        if dx == one:
            return x
        x = [v % mod for v in _ring_mul(x, [2 - dx[0]] + [-v for v in dx[1:]], p)]


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
    v0 = den.constant_term().valuation()
    if want is None or not 0 <= v0 < math.inf:
        return None
    e = len(thresholds)
    q = -(-v0 // e)
    shift = e * q - v0
    mod = p ** (res.digits + (upto + 1) * q)
    dres = _poly_residues(den, p, mod)
    nres = _poly_residues(num, p, mod)
    if nres is None or dres is None:
        return None
    lead = [row[0] for row in dres]
    if q:
        lead = _divide_by_pi(lead, shift, q, p, mod)
    # divide through by the unit lead = den(0)/X, so that den'(0) = X
    inv = _unit_inverse(lead, p, mod)
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
    and in exact arithmetic otherwise. residues is
    ResidueTarget(target, m, upto), passed by callers that screen many
    pairs against one target so that the target is reduced only once.
    """
    if 0 < m < 4096:
        if residues is None:
            residues = ResidueTarget(target, m, upto)
        fast = _residue_screen(num, den, residues, upto)
        if fast is not None:
            return fast
    inv = den.constant_term().inverse()
    out = []
    for n in range(upto):
        s = num[n]
        for k in range(1, min(n, den.degree) + 1):
            s = s - den[k] * out[n - k]
        value = inv * s
        out.append(value)
        if (value - target[n]).valuation() < m:
            return False
    return True


def reconstruct_rational(
    sources, deg_bound: int, verify, what: str, raw_verify=None
) -> RationalFunction:
    """Search for a verified rational certificate of degrees <= deg_bound.

    sources is a list of TruncSeries to run the window sweep on (typically
    the exact series and the canonical lift of its residue). verify is a
    callback returning one of the VERIFY_* outcomes; the first candidate to
    verify is returned. Raises NotInK0 if candidates matched the congruence
    but only ever failed the unit-disc test, else ReconstructionFailed.

    raw_verify, when given, is a fast rejector taking the unreduced
    (num, den) pair; returning False must imply verify would fail, and no
    candidate is then built for that pair.
    """
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
                if t.constant_term().is_zero():
                    continue
                if raw_verify is not None and not raw_verify(r, t):
                    continue
                # t(0) != 0 makes the pair coprime: a common factor would
                # divide z^window (extended Euclid), and z does not divide t
                cand = RationalFunction.from_coprime(r, t)
                key = cand.key()
                if key in seen:
                    continue
                seen.add(key)
                outcome = verify(cand)
                if outcome == VERIFY_OK:
                    return cand
                if outcome == VERIFY_NOT_K0:
                    saw_k0_reject = True
    if saw_k0_reject:
        raise NotInK0(f"{what}: congruence held but a denominator root lies in the open unit disc")
    raise ReconstructionFailed(
        f"{what}: no certificate of degree <= {deg_bound}", deg_bound=deg_bound
    )


def congruence_outcome(cand, target, m, upto, require_norm_one):
    """Shared verification: congruence on the window, then norm and poles.

    Streams the candidate's coefficients and exits at the first discrepancy,
    so junk candidates (which agree only on their Pade window) are cheap.
    """
    if cand.den.constant_term().is_zero():
        return VERIFY_FAIL
    gen = cand.series_coefficients()
    for j in range(upto):
        if (next(gen) - target[j]).valuation() < m:
            return VERIFY_FAIL
    if require_norm_one and not cand.has_gauss_norm_one():
        return VERIFY_FAIL
    if not cand.denominator_unit_disc_free():
        return VERIFY_NOT_K0
    return VERIFY_OK


def product_congruence_outcome(cand, mult, target, m, upto, require_norm_one):
    """Verification for congruences of the shape cand * mult = target.

    Same contract as congruence_outcome, but the candidate is checked through
    a running convolution with the series mult, again exiting at the first
    discrepancy.
    """
    if cand.den.constant_term().is_zero():
        return VERIFY_FAIL
    gen = cand.series_coefficients()
    head = []
    for j in range(upto):
        head.append(next(gen))
        s = target[j]
        for i, c in enumerate(head):
            if not c.is_zero():
                m_coeff = mult[j - i]
                if not m_coeff.is_zero():
                    s = s - c * m_coeff
        if s.valuation() < m:
            return VERIFY_FAIL
    if require_norm_one and not cand.has_gauss_norm_one():
        return VERIFY_FAIL
    if not cand.denominator_unit_disc_free():
        return VERIFY_NOT_K0
    return VERIFY_OK


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
        v = next(v for v in (c.valuation() for c in f.coeffs) if v < 0)
        raise NegativeValuation(f"valuation {v} < 0")
    e, p = f.ctx.e, f.ctx.prime
    rows = []
    for t, row in enumerate(f.rows):
        k = -((t - m) // e)
        rows.append(_residue_rows(f.den, [row], p, p**k)[0] if k > 0 else [0] * len(row))
    return TruncSeries.from_rows(f.ctx, 1, rows)
