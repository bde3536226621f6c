from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import NotInK0, PadicContext, ReconstructionFailed
from cartier import rational
from cartier.catalog import SeriesKind, SeriesSpec, build
from cartier.rational import (
    Polynomial,
    RationalFunction,
    ResidueTarget,
    VERIFY_OK,
    canonical_lift,
    congruence_outcome,
    no_roots_in_open_unit_disc,
    pade_pairs,
    raw_congruence_check,
    reconstruct_rational,
)
from cartier.series import TruncSeries

U5 = PadicContext.unramified(5)
U7 = PadicContext.unramified(7)
D3 = PadicContext.dwork(3)


def poly(ctx, *values):
    return Polynomial.from_coeffs(ctx, values)


def polynomials(ctx, max_deg=6):
    return st.builds(
        lambda cs: Polynomial.from_coeffs(ctx, cs),
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6),
            min_size=0,
            max_size=max_deg + 1,
        ),
    )


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert poly(U5, 1, 2, 0, 0).degree == 1
        assert poly(U5).is_zero()
        assert poly(U5, 0).is_zero()

    def test_mul(self):
        # (1 - z)(1 + z) = 1 - z^2
        assert poly(U5, 1, -1) * poly(U5, 1, 1) == poly(U5, 1, 0, -1)

    @given(a=polynomials(U5), b=polynomials(U5))
    @settings(max_examples=50, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    def test_gcd(self):
        a = poly(U5, 1, -1) * poly(U5, 1, 1)
        b = poly(U5, 1, -1) * poly(U5, 2)
        g = a.gcd(b)
        assert g == poly(U5, -1, 1)  # the monic multiple of 1 - z
        assert g.coeffs[-1] == U5.one()

    def test_derivative_and_subst(self):
        f = poly(U5, 3, 0, 1)  # 3 + z^2
        assert f.derivative() == poly(U5, 0, 2)
        g = poly(U5, 1, 1).subst_zpk(1)
        assert g == poly(U5, 1, 0, 0, 0, 0, 1)

    def test_to_series_pads(self):
        s = poly(U5, 1, 2).to_series(4)
        assert s == TruncSeries.from_coeffs(U5, [1, 2, 0, 0])


class TestUnitDiscTest:
    def test_accepts_unit_coefficients(self):
        # 1 - z has its root on the boundary, not inside
        assert no_roots_in_open_unit_disc(poly(U5, 1, -1))
        assert no_roots_in_open_unit_disc(poly(U5, 1, 0, 3))

    def test_rejects_root_at_zero(self):
        assert not no_roots_in_open_unit_disc(poly(U5, 0, 1))

    def test_rejects_small_root(self):
        # 1 - z/5 vanishes at z = 5, |5| = 1/5 < 1
        assert not no_roots_in_open_unit_disc(poly(U5, 1, Fraction(-1, 5)))
        # scaled version 5 - z has the same root
        assert not no_roots_in_open_unit_disc(poly(U5, 5, -1))

    def test_ramified_slopes(self):
        # 1 + pi*z: root has valuation -1 < 0, outside the closed disc: fine
        assert no_roots_in_open_unit_disc(poly(D3, 1, D3.pi()))
        # pi + z: root is -pi, inside the open disc
        assert not no_roots_in_open_unit_disc(poly(D3, D3.pi(), 1))


class TestRationalFunction:
    def test_make_reduces_and_normalizes(self):
        num = poly(U5, 1, -1) * poly(U5, 1, 1)
        den = poly(U5, 2, -2)
        r = RationalFunction.make(num, den)
        assert r.num == poly(U5, Fraction(1, 2), Fraction(1, 2))
        assert r.den == Polynomial.one(U5)

    def test_series_expansion(self):
        r = RationalFunction.make(Polynomial.one(U5), poly(U5, 1, -1))
        assert r.to_series(6) == TruncSeries.from_coeffs(U5, [1] * 6)

    def test_gauss_norm(self):
        r = RationalFunction.make(poly(U5, 5, 1), poly(U5, 1, -1))
        assert r.gauss_valuation() == 0
        assert RationalFunction.make(poly(U5, 5, 25), poly(U5, 1, -1)).gauss_valuation() == 1

    def test_derivative(self):
        # d/dz (1/(1-z)) = 1/(1-z)^2
        r = RationalFunction.make(Polynomial.one(U5), poly(U5, 1, -1))
        dr = r.derivative()
        assert dr.to_series(5) == TruncSeries.from_coeffs(U5, [1, 2, 3, 4, 5])

    def test_divide(self):
        a = RationalFunction.make(poly(U5, 1, 0, -1), Polynomial.one(U5))
        b = RationalFunction.make(poly(U5, 1, -1), Polynomial.one(U5))
        assert a.divide(b).num == poly(U5, 1, 1)


class TestPade:
    def test_first_pair_is_truncation(self):
        f = TruncSeries.from_coeffs(U5, [1, 2, 3, 4])
        r, t = next(pade_pairs(f, 3))
        assert t == Polynomial.one(U5)
        assert r == poly(U5, 1, 2, 3)

    def test_cofactor_congruence_invariant(self):
        f = TruncSeries.from_coeffs(U5, [1, 1, 2, 3, 5, 8, 13, 21])
        window = 7
        for r, t in pade_pairs(f, window):
            prod = t.to_series(window) * f.truncate(window)
            assert prod.agrees_with(r.to_series(window), window - 0 if r.degree < window else window)

    def test_reconstructs_geometric(self):
        f = TruncSeries.from_coeffs(U5, [1] * 12)

        def verify(cand):
            return congruence_outcome(cand, f, m=10**6, upto=12, require_norm_one=True)

        got = reconstruct_rational([f], deg_bound=3, verify=verify, what="test")
        assert got.num == Polynomial.one(U5)
        assert got.den == poly(U5, 1, -1)

    def test_reconstructs_rational_with_numerator(self):
        # (1 + z^2)/(1 - 2z) expanded
        target = RationalFunction.make(poly(U7, 1, 0, 1), poly(U7, 1, -2))
        f = target.to_series(14)

        def verify(cand):
            return congruence_outcome(cand, f, m=10**6, upto=14, require_norm_one=True)

        got = reconstruct_rational([f], deg_bound=4, verify=verify, what="test")
        assert got == target

    def test_failure_at_small_degree(self):
        # (1-z)^(-1/2) is not rational; tight window and degree bound
        half = Fraction(1, 2)
        coeffs = [Fraction(1)]
        for n in range(1, 12):
            coeffs.append(coeffs[-1] * (half + n - 1) / n)
        f = TruncSeries.from_coeffs(U7, coeffs)

        def verify(cand):
            return congruence_outcome(cand, f, m=1, upto=12, require_norm_one=False)

        with pytest.raises(ReconstructionFailed):
            reconstruct_rational([f, canonical_lift(f, 1)], 2, verify, what="test")

    def test_not_in_k0_surfaced(self):
        # 1/(1 - z/5) is rational but its pole is inside the unit disc
        target = RationalFunction.make(Polynomial.one(U5), poly(U5, 1, Fraction(-1, 5)))
        f = target.to_series(12)

        def verify(cand):
            return congruence_outcome(cand, f, m=10**6, upto=12, require_norm_one=False)

        with pytest.raises(NotInK0):
            reconstruct_rational([f], deg_bound=2, verify=verify, what="test")


class TestLiftAndSearch:
    def test_canonical_lift(self):
        f = TruncSeries.from_coeffs(U5, [1, 6, Fraction(1, 6)])
        lifted = canonical_lift(f, 1)
        assert lifted == TruncSeries.from_coeffs(U5, [1, 1, 1])


# -- differential tests of the fraction-free Pade path ------------------------
#
# The references below are the plain field algorithms: extended Euclid with
# exact division of Coefficient polynomials, and the exact quotient stream.

D5 = PadicContext.dwork(5)
DIFF_ORDER = 12
DIFF_WINDOWS = range(1, 11)


def euclid_pairs(f, window):
    """Extended Euclid on (z^window, f mod z^window) over the field."""
    ctx = f.ctx
    r_prev = Polynomial.monomial(ctx, window)
    r_cur = Polynomial.from_series_prefix(f, window)
    t_prev, t_cur = Polynomial.zero(ctx), Polynomial.one(ctx)
    if r_cur.is_zero():
        yield r_cur, t_cur
        return
    while not r_cur.is_zero():
        yield r_cur, t_cur
        q, rem = r_prev.divmod(r_cur)
        r_prev, r_cur = r_cur, rem
        t_prev, t_cur = t_cur, t_prev - q * t_cur


def normalized(r, t):
    """The pair divided by t(0), or by t's lowest nonzero coefficient."""
    c = next(x for x in t.coeffs if not x.is_zero())
    inv = c.inverse()
    return r.scale(inv), t.scale(inv)


def exact_congruent(num, den, target, m, upto):
    """num/den expanded exactly and compared with target mod pi^m."""
    inv = den.constant_term().inverse()
    out = []
    for n in range(upto):
        s = num[n]
        for k in range(1, min(n, den.degree) + 1):
            s = s - den[k] * out[n - k]
        out.append(inv * s)
        if (out[n] - target[n]).valuation() < m:
            return False
    return True


def diff_sources(ctx):
    """Catalog series in ctx, their log-derivatives, a canonical lift, and a
    copy with p in every denominator."""
    specs = [(SeriesKind.APERY, None), (SeriesKind.HYPERGEOMETRIC, (Fraction(1, 2), Fraction(1, 2)))]
    if ctx.e > 1:
        specs.append((SeriesKind.BESSEL, None))
    out = []
    for kind, alphas in specs:
        f = build(SeriesSpec(kind, ctx, DIFF_ORDER, alphas=alphas)).series
        out += [f, f.log_derivative()]
    f = out[0]
    out.append(canonical_lift(out[1], 2))
    out.append(TruncSeries(tuple(c * Fraction(1, ctx.prime) for c in f.coeffs), ctx))
    return out


@pytest.fixture(scope="module", params=[U5, D3, D5], ids=lambda c: f"e{c.e}")
def diff_case(request):
    """(sources, [(f, r, t)]) with every Pade pair of the sources, once up
    to scaling."""
    sources = diff_sources(request.param)
    pairs, seen = [], set()
    for i, f in enumerate(sources):
        for w in DIFF_WINDOWS:
            for r, t in pade_pairs(f, w):
                num, den = normalized(r, t)
                key = (i, tuple(c.parts for c in num.coeffs), tuple(c.parts for c in den.coeffs))
                if key not in seen:
                    seen.add(key)
                    pairs.append((f, r, t))
    return sources, pairs


class TestFractionFreePade:
    def test_pairs_match_field_euclid(self, diff_case):
        for f in diff_case[0]:
            for w in DIFF_WINDOWS:
                got = list(pade_pairs(f, w))
                want = list(euclid_pairs(f, w))
                assert len(got) == len(want)
                for (r, t), (r0, t0) in zip(got, want):
                    assert normalized(r, t) == normalized(r0, t0)

    def test_pairs_are_integral(self, diff_case):
        for _, r, t in diff_case[1]:
            for c in r.coeffs + t.coeffs:
                assert all(x.denominator == 1 for x in c.parts)

    def test_residue_screen_matches_exact_check(self, diff_case):
        pi_divides_t0 = 0
        for f, r, t in diff_case[1]:
            if t.constant_term().is_zero() or f.min_valuation() < 0:
                continue
            pi_divides_t0 += t.constant_term().valuation() > 0
            for m in (1, 3, 5):
                want = exact_congruent(r, t, f, m, f.order)
                screen = rational._residue_screen(r, t, ResidueTarget(f, m, f.order), f.order)
                assert screen is want
                assert raw_congruence_check(r, t, f, m, f.order) is want
        assert pi_divides_t0 > 0

    def test_exact_fallback_for_non_integral_targets(self, diff_case):
        for f, r, t in diff_case[1]:
            if t.constant_term().is_zero() or f.min_valuation() >= 0:
                continue
            assert ResidueTarget(f, 2, f.order).rows is None
            want = exact_congruent(r, t, f, 2, f.order)
            assert raw_congruence_check(r, t, f, 2, f.order) is want

    def test_make_equals_pair_normalized_by_t0(self, diff_case):
        for _, r, t in diff_case[1]:
            if t.constant_term().is_zero():
                continue
            cand = RationalFunction.make(r, t)
            assert (cand.num, cand.den) == normalized(r, t)
            assert cand == RationalFunction.from_coprime(r, t)
