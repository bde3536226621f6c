"""Truncated power series over a p-adic context.

A TruncSeries stores exactly the coefficients it is reliable for: index j is
the coefficient of z^j and the number of coefficients is the reliable order.
Every operation returns a series whose length reflects how far the result can
be trusted; in particular the Cartier operator divides the order by p and
substitution z -> z^(p^k) multiplies it, so chained computations keep honest
bookkeeping without a separate precision field.

A series is stored as integer numerator rows, one row per pi-component,
over one common denominator: coefficient j is sum_t rows[t][j] pi^t / den.
The form is canonical (den > 0 and the gcd of den and every numerator is 1),
so equal values have equal rows; rational.Polynomial shares the form and
its base class, IntegerRows. A diffops.SeriesMatrix is stored the same way,
its n^2 entries' rows in the flat matrix layout of the kernel at the end of
this module, and shares the row operations of SeriesRows with TruncSeries.
Every operation runs on these rows; coeffs, the tuple of Coefficients, is a
view built on first use and cached, for code that indexes or renders a
value. The series-matrix product, inverse and uniform part in diffops and
the unit solution of an operator are built on the same kernel, the last
three on its one running-denominator recurrence (_recurrence).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, mul

from .errors import BadParameters, NotAUnit
from .rings import INF, Coefficient, PadicContext, _component_digits, _p_adic_order
from .rings import _capped_power, _primitive, _ring_inverse, _rowop, _scale


class IntegerRows:
    """The row form that TruncSeries, SeriesMatrix and rational.Polynomial
    share: ctx, den and canonical integer rows as described above, e rows
    for a single series or polynomial and e rows per entry for a matrix, so
    that row t holds pi-component t % e. A value equals only values of its
    own type. Instances are immutable, and their rows are never modified in
    place.
    """

    __slots__ = ("ctx", "den", "rows", "_view")

    @classmethod
    def _canonical(cls, ctx, den, rows):
        """The value of rows over den, which are already in canonical form."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.den = den
        self.rows = rows
        self._view = None
        return self

    def _single(self):
        """BadParameters unless this is one series or polynomial."""
        if len(self.rows) != self.ctx.e:
            raise BadParameters("a series matrix is read through entry(i, j)")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Coefficients, built once."""
        view = self._view
        if view is None:
            self._single()
            view = self._view = tuple(
                _coefficient(self.den, col, self.ctx) for col in zip(*self.rows)
            )
        return view

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        rows = tuple(map(tuple, self.rows))
        return hash((self.den, rows, self.ctx.prime, self.ctx.ramification))

    def __neg__(self):
        return self._canonical(self.ctx, self.den, [[-x for x in row] for row in self.rows])

    def first_nonzero(self):
        """Index of the first nonzero coefficient, or None for zero."""
        hits = [next((j for j, x in enumerate(row) if x), None) for row in self.rows]
        return min((j for j in hits if j is not None), default=None)

    def _inverse_of(self, j: int):
        """(d, x): x / d is the inverse of the nonzero coefficient j."""
        self._single()
        return _ring_inverse(self.den, [row[j] for row in self.rows], self.ctx.prime)

    def min_valuation(self, upto=None, start=0):
        """Smallest coefficient valuation on the window start <= j < upto
        (INF if all zero).

        The smallest p-adic order along a row is that of the row's gcd.
        """
        e, p = self.ctx.e, self.ctx.prime
        k = _p_adic_order(self.den, p)
        best = INF
        for t, row in enumerate(self.rows):
            g = math.gcd(*row[start:upto])
            if g:
                best = min(best, e * (_p_adic_order(g, p) - k) + t % e)
        return best


class SeriesRows(IntegerRows):
    """The row operations of a value known mod z^order, a TruncSeries or a
    SeriesMatrix: each keeps the operand's type and shape and works on every
    entry at once, over the one denominator.
    """

    __slots__ = ()

    @classmethod
    def _of(cls, ctx, den, rows):
        """The value of integer rows over den > 0, brought to canonical form."""
        g = math.gcd(den, *chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[x // g for x in row] for row in rows]
        return cls._canonical(ctx, den, rows)

    @property
    def order(self) -> int:
        """Number of reliable coefficients (the value is known mod z^order)."""
        return len(self.rows[0])

    def truncate(self, upto: int):
        if upto > self.order:
            raise ValueError(f"only {self.order} coefficients are reliable")
        if upto == self.order:
            return self
        return self._of(self.ctx, self.den, [row[:upto] for row in self.rows])

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    # -- ring operations (result order = what both operands support) --------

    def _common(self, other):
        """other, checked to be a value of this type, context and size."""
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if other.ctx != self.ctx:
            raise BadParameters("mixed contexts")
        if len(other.rows) != len(self.rows):
            raise BadParameters("operands of different sizes")
        return other

    def _lincomb(self, other, sign):
        """self + sign * other on their common order."""
        o = self._common(other)
        n = min(self.order, o.order)
        den = math.lcm(self.den, o.den)
        ka, kb = den // self.den, sign * (den // o.den)
        rows = [
            [ka * x + kb * y for x, y in zip(ra[:n], rb[:n])]
            for ra, rb in zip(self.rows, o.rows)
        ]
        return self._of(self.ctx, den, rows)

    def __add__(self, other):
        return self._lincomb(other, 1)

    def __sub__(self, other):
        return self._lincomb(other, -1)

    def scale(self, c):
        """This value times the scalar c (an int, Fraction or Coefficient)."""
        ctx = self.ctx
        dc, rows = _coeff_rows((ctx.coeff(c),), ctx.e)
        return self._times(dc, [x for (x,) in rows])

    def _times(self, den: int, c):
        """This value times c / den, c integer pi-components and den > 0."""
        e, p, rows = self.ctx.e, self.ctx.prime, self.rows
        return self._of(
            self.ctx,
            self.den * den,
            [r for at in range(0, len(rows), e) for r in _scale(c, rows[at : at + e], p)],
        )

    # -- derivations and the Cartier operator --------------------------------

    def delta(self):
        """The derivation z d/dz: multiplies coefficient j by j."""
        return self._of(
            self.ctx, self.den, [list(map(mul, row, range(len(row)))) for row in self.rows]
        )

    def d_dz(self):
        """Ordinary derivative; reliable order drops by one."""
        return self._of(
            self.ctx,
            self.den,
            [list(map(mul, row[1:], range(1, len(row)))) for row in self.rows],
        )

    def cartier(self):
        """Coefficient extraction along multiples of p: a_n -> a_(np).

        The result is reliable to ceil(order/p).
        """
        p = self.ctx.prime
        return self._of(self.ctx, self.den, [row[::p] for row in self.rows])

    def subst_zpk(self, k: int):
        """Substitute z -> z^(p^k); reliable order grows to order * p^k.

        The gaps are exact zeros, and the first unknown coefficient is the
        one at z^(order * p^k).
        """
        if k < 0:
            raise BadParameters("substitution exponent must be >= 0")
        return self.subst_zpk_truncated(k, self.order * self.ctx.prime**k) if k else self

    def subst_zpk_truncated(self, k: int, n: int):
        """subst_zpk(k).truncate(n), built only to order n: coefficient i
        lands at i * p^k for the i with i * p^k < n, and p^k is capped as
        rings._capped_power caps it."""
        if k < 0:
            raise BadParameters("substitution exponent must be >= 0")
        q = _capped_power(self.ctx.prime, k, n)
        m = -(-n // q)  # the i with i * p^k < n
        if m > self.order:
            raise ValueError(f"only {self.order} coefficients are reliable before substitution")
        rows = []
        for row in self.rows:
            out = [0] * n
            out[::q] = row[:m]
            rows.append(out)
        # only coefficients dropped past z^n can leave a common factor
        return (self._of if m < self.order else self._canonical)(self.ctx, self.den, rows)


class TruncSeries(SeriesRows):
    """A series known mod z^order, as integer rows over a denominator.

    TruncSeries(coeffs, ctx) builds one from a sequence of Coefficients;
    from_rows builds one from integer rows. Instances are immutable.
    """

    __slots__ = ()

    def __init__(self, coeffs, ctx: PadicContext):
        view = tuple(c if isinstance(c, Coefficient) else ctx.coeff(c) for c in coeffs)
        self.ctx = ctx
        self.den, self.rows = _coeff_rows(view, ctx.e)
        self._view = view

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: PadicContext, den: int, rows) -> "TruncSeries":
        """The series with coefficient j = sum_t rows[t][j] pi^t / den; rows
        holds ctx.e integer rows of one length and den is a nonzero int."""
        rows = [list(row) for row in rows]
        if len(rows) != ctx.e or len({len(row) for row in rows}) > 1 or not den:
            raise BadParameters("need e integer rows of one length over a nonzero denominator")
        if den < 0:
            den, rows = -den, [[-x for x in row] for row in rows]
        return cls._of(ctx, den, rows)

    @classmethod
    def from_coeffs(cls, ctx: PadicContext, values) -> "TruncSeries":
        values = list(values)
        if all(isinstance(v, (int, Fraction)) for v in values):
            den = math.lcm(*(v.denominator for v in values))
            row = [v.numerator * (den // v.denominator) for v in values]
            zero = [0] * len(row)
            return cls._canonical(ctx, den, [row] + [zero] * (ctx.e - 1))
        return cls(tuple(ctx.coeff(v) for v in values), ctx)

    @classmethod
    def zero(cls, ctx: PadicContext, order: int) -> "TruncSeries":
        return cls._canonical(ctx, 1, [[0] * order for _ in range(ctx.e)])

    @classmethod
    def one(cls, ctx: PadicContext, order: int) -> "TruncSeries":
        out = cls.zero(ctx, order)
        if order:
            out.rows[0][0] = 1
        return out

    # -- the Coefficient view ------------------------------------------------

    def __getitem__(self, j: int) -> Coefficient:
        return self.coeffs[j]

    def coefficient(self, j: int) -> Coefficient:
        """Coefficient j, without building the whole view."""
        if self._view is not None:
            return self._view[j]
        return _coefficient(self.den, [row[j] for row in self.rows], self.ctx)

    def constant_term(self) -> Coefficient:
        return self.coefficient(0)

    # -- products ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self.scale(other)
        o = self._common(other)
        n = min(self.order, o.order)
        rows = _matmul_ints(self.rows, o.rows, self.ctx, n)
        return TruncSeries._of(self.ctx, self.den * o.den, rows)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            return self * other
        return NotImplemented

    def pow_int(self, n: int) -> "TruncSeries":
        """Integer power; negative exponents go through invert_unit.

        Square-and-multiply from the lowest set bit of n, squaring up to its
        top bit only: n = 1 costs no product and n = 2 one."""
        if n < 0:
            return self.invert_unit().pow_int(-n)
        if n == 0:
            return TruncSeries.one(self.ctx, self.order)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        while n > 1:
            base = base * base
            n >>= 1
            if n & 1:
                out = out * base
        return out

    # -- units ---------------------------------------------------------------

    def invert_unit(self) -> "TruncSeries":
        """Multiplicative inverse mod z^order; needs a unit constant term."""
        if self.order == 0:
            return self
        if not any(row[0] for row in self.rows):
            raise NotAUnit("constant term vanishes")
        dg, g = _invert(self.den, self.rows, self.order, self.ctx)
        return TruncSeries._of(self.ctx, dg, g)

    def log_derivative(self) -> "TruncSeries":
        """f'/f, reliable to order - 1."""
        return self.d_dz() * self.invert_unit()

    # -- valuations and congruences ------------------------------------------

    def first_discrepancy(self, other, m: int, upto: int):
        """Smallest j < upto with v(f_j - g_j) < m, or None."""
        o = self._common(other)
        if upto > min(self.order, o.order):
            raise ValueError("congruence window beyond reliable order")
        e, p = self.ctx.e, self.ctx.prime
        den = math.lcm(self.den, o.den)
        ka, kb = den // self.den, den // o.den
        # component t of the difference is d/den; v(d/den) pi^t >= m exactly
        # when p^(ceil((m - t)/e) + v_p(den)) divides d
        k = _p_adic_order(den, p)
        thresholds = [p ** max(0, _component_digits(m, t, e) + k) for t in range(e)]
        found = upto
        for ra, rb, thr in zip(self.rows, o.rows, thresholds):
            if thr > 1:
                diff = map(lambda x, y: (ka * x - kb * y) % thr, ra[:found], rb[:found])
                found = next((j for j, r in enumerate(diff) if r), found)
        return None if found == upto else found

    def first_nonintegral(self, upto: int):
        """Smallest j < upto with v(f_j) < 0, or None."""
        return self.first_discrepancy(TruncSeries.zero(self.ctx, upto), 0, upto)

    def congruent_mod(self, other, m: int, upto: int) -> bool:
        return self.first_discrepancy(other, m, upto) is None

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.ctx.prime,
            "ramification": self.ctx.ramification.value,
            "N": self.order,
            "coeffs": [c.render() for c in self.coeffs],
        }

    def __repr__(self):
        return f"TruncSeries(coeffs={self.coeffs!r}, ctx={self.ctx!r})"

    def __str__(self):
        shown = ", ".join(self.coefficient(j).render() for j in range(min(self.order, 6)))
        tail = ", .." if self.order > 6 else ""
        return f"[{shown}{tail}] mod z^{self.order}"


def _coeff_rows(coeffs, e):
    """(den, rows) of a sequence of Coefficients: rows[t][j] / den is the
    pi^t part of coeffs[j], and den is the least common denominator of
    every part, so the pair is in canonical form."""
    den = math.lcm(*(x.denominator for c in coeffs for x in c.parts))
    return den, [
        [x.numerator * (den // x.denominator) for x in (c.parts[t] for c in coeffs)]
        for t in range(e)
    ]


def _coefficient(den, column, ctx):
    """The Coefficient with parts column[t] / den."""
    if den == 1:
        return Coefficient(tuple(map(Fraction, column)), ctx)
    return Coefficient(tuple(Fraction(x, den) for x in column), ctx)


# -- the integer kernel -------------------------------------------------------
#
# A "row" is a list of integer numerators along z. An entry (a series, or a
# constant as a series of order 1) is a list of rows, one per pi-component,
# over a denominator held beside it. A matrix is one flat list of rows over
# one denominator: the e rows of entry (i, c) of an n x n matrix start at
# row (i n + c) e (of an n x c' block, as _recurrence solves for, at
# (i c' + c) e). A TruncSeries's rows are the 1 x 1 case, and column 0 of a
# matrix's rows is its value at 0, a constant matrix in the layout below. A
# product of two entries has 2e - 1 "unfolded" rows (pi^0 up to pi^(2e-2));
# _fold turns them back into e rows with pi^e = -p. Rows are never modified
# in place, so results may share rows with their operands.


def _align(series):
    """(den, [rows]) for a list of series: each one's rows over den, the
    least common denominator of all of them."""
    den = math.lcm(*(s.den for s in series))
    return den, [
        s.rows if s.den == den else [[x * (den // s.den) for x in r] for r in s.rows]
        for s in series
    ]


def _unfolded(ctx, n):
    """Zero accumulator for a product: 2e - 1 rows of length n."""
    return [[0] * n for _ in range(2 * ctx.e - 1)]


def _fold(rows, ctx):
    """Fold unfolded product rows: pi^(e+t) = -p pi^t."""
    e, p = ctx.e, ctx.prime
    low = rows[:e]
    for t, high in enumerate(rows[e:]):
        low[t] = [x - p * y for x, y in zip(low[t], high)]
    return low


def _conv_add(out, a, b):
    """out[k] += sum_(i+j=k) a[i] * b[j] for every k < len(out).

    The walk runs over the operand with fewer nonzero terms, so that a
    substituted series f(z^(p^k)), nonzero only at multiples of p^k, costs
    its nonzero terms times the other operand's length."""
    n = len(out)
    a, b = a[:n], b[:n]
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    for i, x in enumerate(a):
        if x:
            seg = b[: n - i]
            end = i + len(seg)
            out[i:end] = map(add, out[i:end], map(x.__mul__, seg))


def _mul_add(acc, a, b):
    """acc += a * b for entries a and b, with acc the 2e - 1 unfolded rows of
    the product (truncated to their length)."""
    b = [(t, rb) for t, rb in enumerate(b) if any(rb)]
    for s, ra in enumerate(a):
        if any(ra):
            for t, rb in b:
                _conv_add(acc[s + t], ra, rb)


def _matmul_ints(a, b, ctx, n):
    """Product of a c x size block and a square matrix b in the flat layout
    (c = size for a square a), each result entry summed over k in the
    unfolded domain and folded once, with rows of length n."""
    e = ctx.e
    size = math.isqrt(len(b) // e)
    # the entries, e rows each: a[i size + k] is entry (i, k) of a
    a, b = ([rows[at : at + e] for at in range(0, len(rows), e)] for rows in (a, b))
    out = []
    for i in range(0, len(a), size):
        for j in range(size):
            acc = _unfolded(ctx, n)
            for k in range(size):
                _mul_add(acc, a[i + k], b[k * size + j])
            out += _fold(acc, ctx)
    return out


def _recurrence(dm, m, x0, d0, order, solve, ctx):
    """Integer form of the n x c series block X with X_0 = x0 / d0 and, for
    j >= 1, X_j = solve(j, R_j) where R_j = sum_(l=1..j) M_l X_(j-l).

    m holds the rows of the n x n matrix M over dm, and x0 is a constant
    n x c block: c is read from its length. solve(j, r, dr) gets R_j as the
    constant block r over dr and returns X_j the same way, as (vector,
    denominator). solve must be linear: a step whose R_j is zero gets
    X_j = 0 without a call. Returns (den, x): X's rows over one common
    denominator, which grows only to the least common denominator of the
    coefficients solved so far.
    """
    e, p = ctx.e, ctx.prime
    size = math.isqrt(len(m) // e)
    cols = len(x0) // (size * e)
    # x[(k cols + c) e + t] is component t of X[k][c] along z
    x = [[v] for v in x0]
    den = d0
    # the nonzero rows of M_1, M_2, ..: (i, k, s, row) with row[l - 1] = M_l,
    # without trailing zeros, so that a polynomial M costs its degree per step
    terms = []
    for at, row in enumerate(m):
        if any(row[1:]):
            ik, s = divmod(at, e)
            terms.append((*divmod(ik, size), s, _trimmed(row[1:])))
    for j in range(1, order):
        r = [0] * len(x)
        for i, k, s, tail in terms:
            head = tail[:j]
            for c in range(cols):
                src, dst = (k * cols + c) * e, (i * cols + c) * e
                for t, xs in enumerate(x[src : src + e]):
                    v = sum(map(mul, head, reversed(xs)))
                    if v:
                        if s + t < e:
                            r[dst + s + t] += v
                        else:
                            r[dst + s + t - e] -= p * v
        if not any(r):
            # R_j = 0, so X_j = 0 (solve is linear): no solve or gcd
            for xs in x:
                xs.append(0)
            continue
        num, dj = solve(j, r, dm * den)
        g = math.gcd(dj, *num)
        dj //= g
        grown = math.lcm(den, dj)
        if grown != den:
            scale = grown // den
            x = [[v * scale for v in xs] for xs in x]
            den = grown
        scale = den // dj
        for xs, v in zip(x, num):
            xs.append(v // g * scale)
    return den, x


def _trimmed(row):
    """row without its trailing zeros."""
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return row[:end]


def _invert(dm, m, order, ctx):
    """Integer form of M^-1 to the given order, from M's rows over dm:
    X_0 = M_0^-1 and X_j = -M_0^-1 sum_(l=1..j) M_l X_(j-l), with the map
    E -> -M_0^-1 E compiled once."""
    d0, inv0 = _const_inverse(dm, [row[0] for row in m], ctx)
    minus_inv0 = _const_map(ctx, [-v for v in inv0])

    def solve(j, r, dr):
        return _apply(minus_inv0, r), d0 * dr

    return _recurrence(dm, m, inv0, d0, order, solve, ctx)


# -- constant matrices ---------------------------------------------------------
#
# A constant matrix is a flat vector of integers over a denominator held
# beside it, component t of entry (i, c) at (i n + c) e + t: the flat row
# layout above, with one integer in place of each row.


def _diag(values, e):
    """The diagonal matrix of the given integers."""
    n = len(values)
    return [v if i == c and t == 0 else 0
            for i, v in enumerate(values) for c in range(n) for t in range(e)]


def _const_map(ctx, left, right=None):
    """The map E -> L E - E R (R = None: zero) as (dst, src, coeff) triples
    with pi^e = -p folded in and equal pairs merged, so that the image is
    image[dst] = sum coeff * E[src]. L and R share a denominator, which the
    caller keeps."""
    e, p = ctx.e, ctx.prime
    n = math.isqrt(len(left) // e)
    coeffs = {}
    for i in range(n):
        for k in range(n):
            for c in range(n):
                # L[i][k] E[k][c] and -E[i][k] R[k][c] land in entry (i, c)
                at = (i * n + k) * e
                terms = [(s, x, k * n + c) for s, x in enumerate(left[at : at + e]) if x]
                if right is not None:
                    at = (k * n + c) * e
                    terms += [(s, -x, i * n + k) for s, x in enumerate(right[at : at + e]) if x]
                for s, x, src in terms:
                    for t in range(e):
                        # x pi^s times component t of E is component s + t
                        u, y = (s + t, x) if s + t < e else (s + t - e, -p * x)
                        key = ((i * n + c) * e + u, src * e + t)
                        coeffs[key] = coeffs.get(key, 0) + y
    return [(dst, src, x) for (dst, src), x in coeffs.items() if x]


def _apply(triples, vec):
    """The image of the flat vector vec under a compiled constant map."""
    out = [0] * len(vec)
    for dst, src, c in triples:
        v = vec[src]
        if v:
            out[dst] += c * v
    return out


def _const_inverse(den, a, ctx):
    """(d, x): x / d is the inverse of the constant matrix a / den, in
    canonical form; NotAUnit when it is singular. Fraction-free Gauss-Jordan
    on [A | I], row i held as e integer rows along its 2n columns: row i
    ends as a_i in column i and B_i on the right, and A^-1 has row B_i / a_i."""
    e, p = ctx.e, ctx.prime
    n = math.isqrt(len(a) // e)
    rows = [
        [[a[(i * n + k) * e + t] for k in range(n)] + [int(t == 0 and k == i) for k in range(n)]
         for t in range(e)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if any(row[col] for row in rows[r])), None)
        if pivot is None:
            raise NotAUnit("constant term matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = [row[col] for row in rows[col]]
        for r in range(n):
            c = [row[col] for row in rows[r]]
            if r != col and any(c):
                (rows[r],) = _primitive(_rowop(lead, rows[r], c, 0, rows[col], p))
    # 1 / a_i = inv / d_i
    invs = [_ring_inverse(1, [r[i] for r in row], p) for i, row in enumerate(rows)]
    d = math.lcm(*(di for di, _ in invs))
    x = [v * den * (d // di)
         for (di, inv), row in zip(invs, rows)
         for col in zip(*_scale(inv, [r[n:] for r in row], p))
         for v in col]
    g = math.gcd(d, *x)
    return d // g, [v // g for v in x]
