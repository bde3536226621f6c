"""Polynomials, rational functions and the Pade reconstruction engine, against
the field Euclid, quotient stream and enumeration references of
tests/oracle.py."""

import copy
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cartier import BadParameters, NegativeValuation, NotInK0, PadicContext, ReconstructionFailed
from cartier import rational
from cartier.catalog import SeriesKind, SeriesSpec, build
from cartier.rational import (
    Polynomial,
    RationalFunction,
    ResidueTarget,
    VERIFY_FAIL,
    VERIFY_OK,
    _residual,
    canonical_lift,
    congruence_outcome,
    least_window,
    no_roots_in_open_unit_disc,
    pade_pairs,
    product_congruence_outcome,
    raw_congruence_check,
    reconstruct_rational,
)
from cartier.rings import INF
from cartier.series import TruncSeries
from oracle import (
    KERNEL_CONTEXTS,
    brute_force_feasible,
    euclid_pairs,
    exact_congruent,
    make_oracle,
    poly_divmod,
    poly_gcd,
    prefix_poly,
    random_coeff,
    ref_gauss_valuation,
    ref_no_roots,
    ref_outcome,
    ref_stream,
)

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
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    def test_gcd(self):
        a = poly(U5, 1, -1) * poly(U5, 1, 1)
        b = poly(U5, 1, -1) * poly(U5, 2)
        g = poly_gcd(a, b)
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


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestSharedRowForm:
    """Polynomial and TruncSeries share the row form and row operations of
    series.IntegerRows."""

    def values(self, ctx):
        rng = random.Random(f"rowform/{ctx.e}")
        coeffs = [random_coeff(rng, ctx) for _ in range(5)] + [ctx.one()]
        return Polynomial.from_coeffs(ctx, coeffs), TruncSeries(tuple(coeffs), ctx)

    def test_instances_have_no_dict(self, ctx):
        for x in self.values(ctx):
            assert not hasattr(x, "__dict__")
            with pytest.raises(AttributeError):
                x.extra = 1

    def test_a_polynomial_never_equals_a_series(self, ctx):
        p, s = self.values(ctx)
        assert (p.den, p.rows) == (s.den, s.rows)
        assert p != s and s != p
        assert not p == s

    def test_negation_keeps_the_type(self, ctx):
        for x in self.values(ctx):
            neg = -x
            assert type(neg) is type(x)
            assert neg.coeffs == tuple(-c for c in x.coeffs)
            assert -neg == x

    def test_equal_values_hash_equal(self, ctx):
        p, s = self.values(ctx)
        for x, y in (
            (p, Polynomial.from_rows(ctx, 3 * p.den, [[3 * v for v in row] + [0] for row in p.rows])),
            (s, TruncSeries.from_coeffs(ctx, s.coeffs)),
        ):
            assert x == y and hash(x) == hash(y)
            assert x is not y

    def test_valuations_on_the_rows(self, ctx):
        p, s = self.values(ctx)
        want = min(c.valuation() for c in p.coeffs)
        assert p.gauss_valuation() == p.min_valuation() == s.min_valuation() == want
        assert Polynomial.zero(ctx).gauss_valuation() == INF


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


class TestVerificationEdges:
    def test_a_pole_at_zero_fails_without_a_residual(self):
        cand = RationalFunction(poly(U5, 1, 2), poly(U5, 0, 1))
        target = TruncSeries.from_coeffs(U5, [1, 2, 3, 4])
        want = ref_outcome(cand, None, target, 1, 4, False)
        assert want == (VERIFY_FAIL, None)
        assert congruence_outcome(cand, target, 1, 4, False) == want
        mult = TruncSeries.one(U5, 4)
        assert product_congruence_outcome(cand, mult, target, 1, 4, False) == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_screen_below_a_later_denominator_agrees_with_the_exact_check(self, m):
        # p divides the target's denominator only through its last
        # coefficient, which lies past the window
        target = TruncSeries.from_coeffs(U5, [1, 6, 31, Fraction(1, 5)])
        upto = 3
        residues = ResidueTarget(target, m, upto)
        assert residues.rows is not None
        pairs = [(poly(U5, 1), poly(U5, 1, -6)), (poly(U5, 1, 1), poly(U5, 1, -5)),
                 (poly(U5, 1, 6, 31), Polynomial.one(U5)), (poly(U5, 2), poly(U5, 2, 3))]
        for num, den in pairs:
            assert rational._residue_screen(num, den, residues, upto) is not None
            want = _residual(RationalFunction(num, den), target, upto) >= m
            assert raw_congruence_check(num, den, target, m, upto) is want
            assert raw_congruence_check(num, den, target, m, upto, residues) is want


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
            assert prod == r.to_series(window)

    def test_reconstructs_geometric(self):
        f = TruncSeries.from_coeffs(U5, [1] * 12)
        got, resid = reconstruct_rational(f, 10**6, deg_bound=3, what="test", require_norm_one=True)
        assert resid == INF
        assert got.num == Polynomial.one(U5)
        assert got.den == poly(U5, 1, -1)

    def test_reconstructs_rational_with_numerator(self):
        # (1 + z^2)/(1 - 2z) expanded
        target = RationalFunction.make(poly(U7, 1, 0, 1), poly(U7, 1, -2))
        f = target.to_series(14)
        got, _ = reconstruct_rational(f, 10**6, deg_bound=4, what="test", require_norm_one=True)
        assert got == target

    def test_failure_at_small_degree(self):
        # (1-z)^(-1/2) is not rational; tight window and degree bound
        half = Fraction(1, 2)
        coeffs = [Fraction(1)]
        for n in range(1, 12):
            coeffs.append(coeffs[-1] * (half + n - 1) / n)
        f = TruncSeries.from_coeffs(U7, coeffs)
        with pytest.raises(ReconstructionFailed):
            reconstruct_rational(f, 1, 2, what="test")

    def test_not_in_k0_surfaced(self):
        # 1/(1 - z/5) is rational but its pole is inside the unit disc
        target = RationalFunction.make(Polynomial.one(U5), poly(U5, 1, Fraction(-1, 5)))
        f = target.to_series(12)
        with pytest.raises(NotInK0):
            reconstruct_rational(f, 10**6, deg_bound=2, what="test")


    def test_negative_degree_bound(self):
        f = TruncSeries.from_coeffs(U5, [1] * 12)
        with pytest.raises(BadParameters, match="degree bound must be >= 0, got -1"):
            reconstruct_rational(f, 1, -1, "test")

    @pytest.mark.parametrize("m", [3, 5000])
    def test_integral_unit_mult_is_screened(self, monkeypatch, m):
        # the screen is exact at every level, so it also runs at high ones
        calls, decided = [], []
        screen = rational.raw_congruence_check
        residue_screen = rational._residue_screen
        monkeypatch.setattr(rational, "raw_congruence_check", lambda *a: calls.append(a) or screen(*a))
        monkeypatch.setattr(
            rational, "_residue_screen", lambda *a: decided.append(residue_screen(*a)) or decided[-1]
        )
        target = TruncSeries.from_coeffs(U5, [1] * 12)
        mult = TruncSeries.from_coeffs(U5, [1, 1] + [0] * 10)
        got, resid = reconstruct_rational(target, m, 2, "test", mult=mult)
        assert got == RationalFunction.make(Polynomial.one(U5), poly(U5, 1, 0, -1))
        assert resid == INF
        assert calls
        assert any(d is not None for d in decided)

    def test_mult_without_integral_inverse_is_not_screened(self, monkeypatch):
        # u = 1 + z/5 has a unit constant term but u^-1 is not integral, so
        # R * u = target and R = target / u are different congruences
        # mod 5^3: R = 1 meets the first with residual -125, while
        # target / u = 126 - 25z + 5z^2 - z^3 is not 1 mod 125. A screen
        # against target / u would reject the certificate.
        # The exact check compares R * u with target: at order 8 with noise
        # 125z, R * u = target - 125z holds mod 5^3 but target / u - 1 has
        # -25z^2.
        calls = []
        screen = rational.raw_congruence_check
        monkeypatch.setattr(rational, "raw_congruence_check", lambda *a: calls.append(a) or screen(*a))
        for order, noise in ((4, [125]), (8, [0, 125])):
            u = TruncSeries.from_coeffs(U5, [1, Fraction(1, 5)] + [0] * (order - 2))
            target = u + TruncSeries.from_coeffs(U5, noise + [0] * (order - len(noise)))
            got, resid = reconstruct_rational(target, 3, 2, "test", mult=u)
            assert got == RationalFunction.constant(U5, 1)
            assert resid == 3
        assert not calls


class TestLiftAndSearch:
    def test_canonical_lift(self):
        f = TruncSeries.from_coeffs(U5, [1, 6, Fraction(1, 6)])
        lifted = canonical_lift(f, 1)
        assert lifted == TruncSeries.from_coeffs(U5, [1, 1, 1])

    @pytest.mark.parametrize(
        "ctx, values, v",
        [
            (U5, [1, 0, Fraction(1, 25), Fraction(1, 5)], -2),
            (D3, [1, (0, Fraction(1, 3)), Fraction(1, 3)], -1),
            (D3, [(0, 1), 0, (Fraction(1, 9), Fraction(1, 3)), Fraction(1, 27)], -4),
        ],
    )
    def test_canonical_lift_names_the_first_negative_valuation(self, ctx, values, v):
        f = TruncSeries.from_coeffs(ctx, values)
        with pytest.raises(NegativeValuation, match=rf"^valuation {v} < 0$"):
            canonical_lift(f, 2)


class TestLiftOnDemand:
    """reconstruct_rational sweeps the canonical lift of its target only
    when the sweep over the target itself returns no certificate."""

    def count_lifts(self, monkeypatch):
        built = []
        real_lift = rational.ResidueTarget.lift

        def lift(res):
            built.append(real_lift(res))
            return built[-1]

        monkeypatch.setattr(rational.ResidueTarget, "lift", lift)
        return built

    def test_not_built_when_the_target_certifies(self, monkeypatch):
        built = self.count_lifts(monkeypatch)
        g = TruncSeries.from_coeffs(U5, [1] * 12)
        cand, _ = reconstruct_rational(g, 2, 3, "geometric")
        assert cand == RationalFunction.make(poly(U5, 1), poly(U5, 1, -1))
        assert built == []

    def test_built_once_when_it_does_not(self, monkeypatch):
        built = self.count_lifts(monkeypatch)
        g = TruncSeries.from_coeffs(
            U5, [Fraction(math.comb(2 * n, n), 4**n) for n in range(12)]
        )
        with pytest.raises(ReconstructionFailed):
            reconstruct_rational(g, 2, 3, "half power")
        (lift,) = built
        assert lift == canonical_lift(g, 2)


# -- differential tests of the fraction-free Pade path ------------------------
#
# The references are the oracle's plain field algorithms: extended Euclid
# with exact division of Coefficient polynomials, and the exact quotient
# stream.

D5 = PadicContext.dwork(5)
DIFF_ORDER = 12
DIFF_WINDOWS = range(1, 11)


def normalized(r, t):
    """The pair divided by t(0), or by t's lowest nonzero coefficient."""
    c = next(x for x in t.coeffs if not x.is_zero())
    inv = c.inverse()
    return r.scale(inv), t.scale(inv)


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
        # the screen decides a pair exactly when t(0) is a unit and declines
        # (None) otherwise; raw_congruence_check is exact on every pair
        pi_divides_t0 = 0
        for f, r, t in diff_case[1]:
            if t.constant_term().is_zero() or f.min_valuation() < 0:
                continue
            unit = t.constant_term().valuation() == 0
            pi_divides_t0 += not unit
            for m in (1, 3, 5):
                want = exact_congruent(r, t, f, m, f.order)
                screen = rational._residue_screen(r, t, ResidueTarget(f, m, f.order), f.order)
                assert screen is (want if unit else None)
                assert raw_congruence_check(r, t, f, m, f.order) is want
        assert pi_divides_t0 > 0

    def test_exact_fallback_for_non_integral_targets(self, diff_case):
        for f, r, t in diff_case[1]:
            if t.constant_term().is_zero() or f.min_valuation() >= 0:
                continue
            assert ResidueTarget(f, 2, f.order).rows is None
            want = exact_congruent(r, t, f, 2, f.order)
            assert raw_congruence_check(r, t, f, 2, f.order) is want

    def test_yielded_rows_are_never_modified(self, diff_case):
        # a pair holds the chain's own row lists; neither the rest of the
        # chain nor the screen, the normalization and the exact check may
        # write to them
        for f in diff_case[0]:
            for w in DIFF_WINDOWS:
                pairs, snapshots = [], []
                for r, t in pade_pairs(f, w):
                    pairs.append((r, t))
                    snapshots.append(copy.deepcopy((r.den, r.rows, t.den, t.rows)))
                for r, t in pairs:
                    if not t.vanishes_at_zero():
                        raw_congruence_check(r, t, f, 2, f.order)
                        congruence_outcome(RationalFunction.from_coprime(r, t), f, 2, f.order, True)
                assert [(r.den, r.rows, t.den, t.rows) for r, t in pairs] == snapshots

    def test_make_equals_pair_normalized_by_t0(self, diff_case):
        for _, r, t in diff_case[1]:
            if t.constant_term().is_zero():
                continue
            cand = RationalFunction.make(r, t)
            assert (cand.num, cand.den) == normalized(r, t)
            assert cand == RationalFunction.from_coprime(r, t)


# -- Polynomial and RationalFunction on rows, against Coefficient loops --------
#
# The oracle's references spell each operation out as a plain loop over the
# Coefficient view.

POLY_SHAPES = ("dense", "zero", "trailing-zeros", "pi-divisible")


def poly_values(rng, ctx, length, shape):
    values = [random_coeff(rng, ctx) for _ in range(length)]
    if shape == "zero":
        values = [ctx.zero()] * length
    elif shape == "trailing-zeros":
        values += [ctx.zero()] * 3
    elif shape == "pi-divisible":
        values = [c * ctx.pi() for c in values]
    return values


def stripped(values):
    values = list(values)
    while values and values[-1].is_zero():
        values.pop()
    return tuple(values)


def assert_poly(result, values):
    """result has exactly the given coefficients, in canonical rows with a
    nonzero top column."""
    want = stripped(values)
    assert result.coeffs == want
    other = Polynomial.from_coeffs(result.ctx, want)
    assert result == other and hash(result) == hash(other)
    assert result.den > 0
    assert math.gcd(result.den, *(x for row in result.rows for x in row)) == 1
    assert len(result.rows) == result.ctx.e
    assert all(len(row) == len(want) for row in result.rows)
    assert result.degree == len(want) - 1
    if want:
        assert any(row[-1] for row in result.rows)
    else:
        assert result.den == 1 and result.is_zero()


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
@pytest.mark.parametrize("shape", POLY_SHAPES)
class TestPolynomialRowsAgainstCoefficientLoops:
    LENGTHS = (0, 1, 2, 7)

    def cases(self, ctx, shape, tag):
        rng = random.Random(f"{tag}/{ctx.e}/{shape}")
        for length in self.LENGTHS:
            a = poly_values(rng, ctx, length, shape)
            b = poly_values(rng, ctx, rng.randrange(5), rng.choice(POLY_SHAPES))
            yield rng, a, b

    def test_construction(self, ctx, shape):
        for _, a, _ in self.cases(ctx, shape, "make"):
            pa = Polynomial.from_coeffs(ctx, a)
            assert_poly(pa, a)
            scale = 6 * ctx.prime
            rows = [[x * scale for x in row] for row in pa.rows]
            assert_poly(Polynomial.from_rows(ctx, -pa.den * scale, rows), [-c for c in a])
            f = TruncSeries(tuple(a), ctx)
            for upto in range(len(a) + 2):
                assert_poly(prefix_poly(f, upto), a[:upto])

    def test_add_sub_neg(self, ctx, shape):
        zero = ctx.zero()
        for _, a, b in self.cases(ctx, shape, "add"):
            pa, pb = Polynomial.from_coeffs(ctx, a), Polynomial.from_coeffs(ctx, b)
            n = max(len(a), len(b))
            a0, b0 = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
            assert_poly(pa + pb, [x + y for x, y in zip(a0, b0)])
            assert_poly(pa - pb, [x - y for x, y in zip(a0, b0)])
            assert_poly(-pa, [-x for x in a])
            assert (pa - pa).is_zero()

    def test_mul_and_scale(self, ctx, shape):
        for rng, a, b in self.cases(ctx, shape, "mul"):
            pa, pb = Polynomial.from_coeffs(ctx, a), Polynomial.from_coeffs(ctx, b)
            out = [ctx.zero()] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            assert_poly(pa * pb, out)
            assert_poly(pb * pa, out)
            for c in (random_coeff(rng, ctx), ctx.pi(), Fraction(ctx.prime, 6), -3, 0):
                want = [ctx.coeff(c) * x for x in a]
                assert_poly(pa.scale(c), want)
                assert_poly(pa * c, want)
                assert_poly(c * pa, want)

    def test_derivative_subst_and_series(self, ctx, shape):
        for _, a, _ in self.cases(ctx, shape, "subst"):
            pa = Polynomial.from_coeffs(ctx, a)
            assert_poly(pa.derivative(), [c * j for j, c in enumerate(a)][1:])
            for k in (0, 1, 2):
                q = ctx.prime**k
                out = [ctx.zero()] * (len(a) * q)
                out[::q] = a
                assert_poly(pa.subst_zpk(k), out)
            for order in {0, 1, len(a) - 1, len(a), len(a) + 3} - {-1}:
                want = (list(a) + [ctx.zero()] * order)[:order]
                assert pa.to_series(order) == TruncSeries(tuple(want), ctx)
            # the row operations Polynomial takes from series.IntegerRows, on
            # rows as long as the polynomial
            want = stripped(a)
            for upto in range(len(want) + 1):
                assert_poly(pa.truncate(upto), want[:upto])
            assert_poly(pa.delta(), [c * j for j, c in enumerate(a)])
            assert_poly(pa.cartier(), want[:: ctx.prime])
            for k in (0, 1, 2):
                q = ctx.prime**k
                out = [ctx.zero()] * (len(want) * q)
                out[::q] = want
                for n in {0, min(1, len(out)), max(len(out) - 1, 0), len(out)}:
                    assert_poly(pa.subst_zpk_truncated(k, n), out[:n])

    def test_valuations_and_indexing(self, ctx, shape):
        for _, a, _ in self.cases(ctx, shape, "val"):
            pa = Polynomial.from_coeffs(ctx, a)
            assert pa.gauss_valuation() == ref_gauss_valuation(pa)
            assert no_roots_in_open_unit_disc(pa) == ref_no_roots(pa)
            assert pa.vanishes_at_zero() == (not a or a[0].is_zero())
            want = stripped(a)
            for j in range(len(want) + 2):
                assert pa[j] == (want[j] if j < len(want) else ctx.zero())
            assert pa.constant_term() == pa[0]

    def test_operands_are_not_modified(self, ctx, shape):
        for rng, a, b in self.cases(ctx, shape, "pure"):
            pa, pb = Polynomial.from_coeffs(ctx, a), Polynomial.from_coeffs(ctx, b)
            before = copy.deepcopy((pa.den, pa.rows, pb.den, pb.rows))
            pa + pb, pa - pb, -pa, pa * pb, pa.scale(random_coeff(rng, ctx))
            pa.derivative(), pa.subst_zpk(1), pa.to_series(len(a) + 2), pa.to_series(1)
            pa.truncate(0), pa.delta(), pa.cartier(), pa.subst_zpk_truncated(1, pa.order)
            assert (pa.den, pa.rows, pb.den, pb.rows) == before


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
def test_polynomial_arithmetic_builds_no_series(ctx, monkeypatch):
    rng = random.Random(f"noseries/{ctx.e}")
    a, b = (Polynomial.from_coeffs(ctx, poly_values(rng, ctx, 4, "dense")) for _ in range(2))
    den = Polynomial.from_coeffs(ctx, [ctx.one()] + poly_values(rng, ctx, 3, "dense"))
    r = RationalFunction.make(a, den)

    def refuse(*args):
        raise AssertionError("a TruncSeries built by polynomial arithmetic")

    monkeypatch.setattr(TruncSeries, "_of", refuse)
    monkeypatch.setattr(TruncSeries, "_canonical", refuse)
    a + b, a - b, a * b, a.scale(ctx.pi()), a.derivative(), a.subst_zpk(1)
    Polynomial.from_rows(ctx, -3, a.rows)
    RationalFunction.make(a, b), RationalFunction.from_coprime(a, den)
    r.derivative(), r.divide(RationalFunction.make(b, den)), r.subst_zpk(1)


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
class TestRationalRowsAgainstCoefficientLoops:
    def test_to_series_is_the_quotient_stream(self, ctx):
        rng = random.Random(f"quotient/{ctx.e}")
        for length in (1, 2, 4):
            num = Polynomial.from_coeffs(ctx, poly_values(rng, ctx, length, "dense"))
            den_values = poly_values(rng, ctx, length, rng.choice(["dense", "pi-divisible"]))
            den_values[0] = random_coeff(rng, ctx) or ctx.one()
            den = Polynomial.from_coeffs(ctx, den_values)
            for order in (0, 1, 9):
                got = RationalFunction(num, den).to_series(order)
                assert got == TruncSeries(tuple(ref_stream(num, den, order)), ctx)

    def test_outcomes_match_the_coefficient_stream(self, ctx):
        # candidates are the normalized Pade pairs of the differential
        # sources: a few true certificates among many that only agree on
        # their window; the product check multiplies by a unit series.
        # Both the outcome and the residual valuation returned with it
        # must match the stream's, also for the pair num * pi / den * pi,
        # whose den(0) has valuation 1.
        sources = diff_sources(ctx)
        mult = sources[0]
        pi = ctx.pi()
        seen, resids = set(), set()
        for f in sources[:3]:
            target = f * mult
            for w in (2, 5, 8):
                for r, t in pade_pairs(f, w):
                    if t.vanishes_at_zero():
                        continue
                    cand = RationalFunction.from_coprime(r, t)
                    scaled = RationalFunction(cand.num.scale(pi), cand.den.scale(pi))
                    for args in ((None, f), (mult, target)):
                        want = ref_outcome(cand, *args, 1, f.order, False)[1]
                        assert rational._residual(scaled, args[1], f.order, args[0]) == want
                    for m in (1, 3):
                        for norm in (False, True):
                            want = ref_outcome(cand, None, f, m, f.order, norm)
                            assert congruence_outcome(cand, f, m, f.order, norm) == want
                            seen.add(want[0])
                            resids.add(want[1])
                            if not norm:
                                # the screen on a candidate over den(0)
                                raw = raw_congruence_check(cand.num, cand.den, f, m, f.order)
                                assert raw is (want[0] != VERIFY_FAIL)
                            want = ref_outcome(cand, mult, target, m, f.order, norm)
                            got = product_congruence_outcome(cand, mult, target, m, f.order, norm)
                            assert got == want
                            seen.add(want[0])
                            resids.add(want[1])
        assert {VERIFY_OK, VERIFY_FAIL} <= seen
        assert len(resids) > 2

    def test_non_integral_pairs_use_the_exact_check(self, ctx):
        rng = random.Random(f"exact/{ctx.e}")
        f = diff_sources(ctx)[-1]  # p in every denominator
        one = Polynomial.one(ctx)
        # f itself, f off by p^2 z^3, and random pairs
        prefix = prefix_poly(f, f.order)
        pairs = [(prefix, one), (prefix + Polynomial.monomial(ctx, 3).scale(ctx.prime**2), one)]
        for _ in range(6):
            num = Polynomial.from_coeffs(ctx, poly_values(rng, ctx, 3, "dense"))
            den = Polynomial.from_coeffs(ctx, [ctx.one()] + poly_values(rng, ctx, 2, "dense"))
            pairs.append((num, den))
        passed = set()
        for num, den in pairs:
            for m in (-2, 0, 1, 3, 2 * ctx.e + 1):
                want, _ = ref_outcome(RationalFunction(num, den), None, f, m, f.order, False)
                assert raw_congruence_check(num, den, f, m, f.order) is (want != VERIFY_FAIL)
                passed.add(want != VERIFY_FAIL)
        assert passed == {True, False}


# -- the least Pade window mod pi^m -------------------------------------------
#
# least_window(ResidueTarget(g, m, upto), D) is s = 1 + min(a + b) over the
# degree bounds a, b <= D for which some integral t = 1 + t_1 z + .. + t_b z^b
# makes coefficients a+1 .. upto-1 of t*g vanish mod pi^m, or None when no
# (a, b) is feasible. The oracles are the full certificate sweep (whose
# certificate must fit in window s, and which must return it again when it
# starts there), one elimination per (a, b), and, in tiny rings, enumeration
# of t.

U2 = PadicContext.unramified(2)
U3 = PadicContext.unramified(3)


def integral_series(rng, ctx, order):
    """Integral coefficients over a unit denominator, about half of them
    divisible by p, so that valuations vary."""
    p = ctx.prime
    den = rng.choice([1, 1, 2 if p != 2 else 3])
    rows = [
        [rng.randint(-p * p, p * p) * rng.choice([1, p]) for _ in range(order)]
        for _ in range(ctx.e)
    ]
    return TruncSeries.from_rows(ctx, den, rows)


def planted_rational(rng, ctx, order, m, deg):
    """r/t + pi^m * noise with t integral, t(0) = 1 and deg r, deg t <= deg;
    r/t enters by its canonical lift mod pi^m, which keeps the integers
    small."""
    t = integral_series(rng, ctx, rng.randint(1, deg + 1))
    rows = [[x * t.den for x in row] for row in t.rows]  # integral numerators
    for i, row in enumerate(rows):
        row[0] = int(i == 0)
    den = Polynomial.from_rows(ctx, 1, rows)
    num = prefix_poly(integral_series(rng, ctx, rng.randint(1, deg + 1)), deg + 1)
    noise = integral_series(rng, ctx, order) * ctx.pi() ** m
    return canonical_lift(RationalFunction(num, den).to_series(order), m) + noise


def filter_targets(rng, ctx, m, deg, order):
    """A random target, a planted rational, and the canonical lift of each."""
    g = integral_series(rng, ctx, order)
    planted = planted_rational(rng, ctx, order, m, deg)
    return [
        (g, False),
        (planted, True),
        (canonical_lift(g, m), False),
        (canonical_lift(planted, m), True),
    ]


def sweep_certificate(g, m, deg, first_window=1):
    """The certificate search of the scan, with its residual, or None."""
    try:
        return reconstruct_rational(g, m, deg, "window oracle", first_window=first_window)
    except (ReconstructionFailed, NotInK0):
        return None


def least_by(feasible, deg):
    """1 + min(a + b) over a, b <= deg with feasible(a, b), or None."""
    sums = [a + b for a in range(deg + 1) for b in range(deg + 1) if feasible(a, b)]
    return 1 + min(sums) if sums else None


def solvable(rows, rhs, p, mod):
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


def eliminated_feasible(res, a, b):
    """Feasibility of (a, b) by one elimination of its own system over Z/p^k:
    the unknowns are the e pi-components of t_1..t_b, and the equation for
    component i of coefficient n > a is scaled by p^k / thresholds[i]."""
    want, p, thresholds = res.rows, res.ctx.prime, res.thresholds
    e, mod = len(thresholds), p**res.digits
    rows, rhs = [], []
    for n in range(a + 1, len(want[0])):
        cols = [[w[n - j] if j <= n else 0 for w in want] for j in range(1, b + 1)]
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
    return solvable(rows, rhs, p, mod)


class TestCertificateFilter:
    @pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
    def test_never_rejects_a_certified_or_planted_search(self, ctx):
        rng = random.Random(f"filter/{ctx.e}")
        verdicts = set()
        for _ in range(12):
            m, deg = rng.randint(1, 5), rng.randint(1, 9)
            order = rng.randint(deg + 2, deg + 8)
            for g, planted in filter_targets(rng, ctx, m, deg, order):
                s = least_window(ResidueTarget(g, m, order), deg)
                if planted:
                    assert s is not None, (m, deg, order)
                found = sweep_certificate(g, m, deg)
                if found is not None:
                    cand = found[0]
                    # the certificate's own degrees are a feasible pair
                    assert s is not None
                    assert s <= max(cand.num.degree, 0) + cand.den.degree + 1, (m, deg, order)
                    assert sweep_certificate(g, m, deg, first_window=s) == found
                    verdicts.add("certified")
                verdicts.add(s is None)
        # the cases reach both answers and the sweep certifies some of them
        assert verdicts == {True, False, "certified"}

    @pytest.mark.parametrize("ctx", [U2, U3, D3], ids=["p2", "p3", "p3-e2"])
    def test_equals_enumeration_in_tiny_rings(self, ctx):
        rng = random.Random(f"filter-brute/{ctx.prime}/{ctx.e}")
        windows = set()
        for m in (1, 2):
            for deg in (1, 2):
                for order in range(deg + 1, 2 * deg + 5):
                    for g, _ in filter_targets(rng, ctx, m, deg, order):
                        want = least_by(lambda a, b: brute_force_feasible(g, m, a, b), deg)
                        got = least_window(ResidueTarget(g, m, order), deg)
                        assert got == want, (m, deg, order, g)
                        windows.add(want)
        assert None in windows and len(windows) >= 4


class TestLeastWindow:
    @pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"e{c.e}")
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_per_bound_elimination(self, ctx, m):
        # m > e gives k >= 2, where pivots of positive valuation need their
        # saturation rows
        rng = random.Random(f"window/{ctx.e}/{m}")
        windows = set()
        for _ in range(6):
            deg = rng.randint(0, 5)
            order = rng.randint(1, 2 * deg + 6)
            for g, _ in filter_targets(rng, ctx, m, max(deg, 1), order):
                res = ResidueTarget(g, m, order)
                want = least_by(lambda a, b: eliminated_feasible(res, a, b), deg)
                assert least_window(res, deg) == want, (m, deg, order)
                windows.add(want)
        assert None in windows and len(windows) >= 3

    @pytest.mark.parametrize("ctx", [U5, D3], ids=lambda c: f"e{c.e}")
    def test_degree_bound_at_or_above_the_order(self, ctx):
        # a = upto - 1 leaves no equation, so some window <= upto is feasible
        rng = random.Random(f"window-high/{ctx.e}")
        for order in (1, 4, 6):
            for deg in (order - 1, order, order + 3):
                for g, _ in filter_targets(rng, ctx, 2, max(deg, 1), order):
                    res = ResidueTarget(g, 2, order)
                    want = least_by(lambda a, b: eliminated_feasible(res, a, b), deg)
                    assert least_window(res, deg) == want <= order, (order, deg)


# -- RationalFunction.make against the field Euclid ----------------------------
#
# make reduces num/den from the terminal cofactors of one primitive
# remainder sequence; make_oracle divides out the monic gcd that the field
# Euclid on the Coefficient view finds. Both then normalize by the lowest
# nonzero denominator coefficient, so the results are equal, not just equal
# up to a scalar.

MAKE_CONTEXTS = [U5, D3, D5]


def ring_elements(ctx, nonzero=False):
    dens = st.sampled_from([1, 1, 2, 3, ctx.prime])
    parts = st.lists(st.builds(Fraction, st.integers(-9, 9), dens), min_size=ctx.e, max_size=ctx.e)
    elements = parts.map(lambda xs: ctx.coeff(tuple(xs)))
    return elements.filter(lambda c: not c.is_zero()) if nonzero else elements


def ring_polynomials(ctx, degree):
    """A polynomial of exactly this degree."""
    return st.tuples(
        st.lists(ring_elements(ctx), min_size=degree, max_size=degree),
        ring_elements(ctx, nonzero=True),
    ).map(lambda parts: Polynomial.from_coeffs(ctx, parts[0] + [parts[1]]))


class TestMakeAgainstFieldEuclid:
    @pytest.mark.parametrize("ctx", MAKE_CONTEXTS, ids=lambda c: f"e{c.e}")
    @pytest.mark.parametrize("common", ["none", "constant", "z-power", "polynomial"])
    @pytest.mark.parametrize("shape", ["below", "equal", "above"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_matches_the_oracle(self, ctx, common, shape, data):
        low = data.draw(st.integers(0, 3))
        high = low + data.draw(st.integers(1, 3))
        dn, dd = {"below": (low, high), "equal": (low, low), "above": (high, low)}[shape]
        if common == "none":
            g = Polynomial.one(ctx)
        elif common == "constant":
            g = data.draw(ring_polynomials(ctx, 0))
        elif common == "z-power":
            g = Polynomial.monomial(ctx, data.draw(st.integers(1, 3)))
        else:
            g = data.draw(ring_polynomials(ctx, data.draw(st.integers(1, 3))))
            if data.draw(st.booleans()):
                g = g * Polynomial.monomial(ctx, 1)
        num = data.draw(ring_polynomials(ctx, dn)) * g
        den = data.draw(ring_polynomials(ctx, dd)) * g
        assert RationalFunction.make(num, den) == make_oracle(num, den)

    @pytest.mark.parametrize("ctx", MAKE_CONTEXTS, ids=lambda c: f"e{c.e}")
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_zero_numerator_keeps_the_denominator(self, ctx, data):
        den = data.draw(ring_polynomials(ctx, data.draw(st.integers(0, 4))))
        den = den * Polynomial.monomial(ctx, data.draw(st.integers(0, 2)))
        got = RationalFunction.make(Polynomial.zero(ctx), den)
        assert got == make_oracle(Polynomial.zero(ctx), den)
        assert got.num.is_zero() and got.den.degree == den.degree

    @pytest.mark.parametrize("ctx", [D3, D5], ids=lambda c: f"e{c.e}")
    def test_integral_lead_scales_by_one_element(self, ctx):
        """_integral_lead leaves an integer leading coefficient and multiplies
        the remainder and its cofactors by one common ring element."""
        rng = random.Random(f"integral-lead/{ctx.e}")
        for _ in range(20):
            polys = [
                [[rng.randint(-30, 30) for _ in range(n)] for _ in range(ctx.e)]
                for n in (rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 4))
            ]
            if not any(row[-1] for row in polys[0]):
                continue
            out = rational._integral_lead(polys, ctx.prime)
            assert not any(row[-1] for row in out[0][1:])
            before = [Polynomial.from_rows(ctx, 1, x) for x in polys]
            after = [Polynomial.from_rows(ctx, 1, x) for x in out]
            for a, b in itertools.combinations(range(3), 2):
                assert after[a] * before[b] == after[b] * before[a]

    def test_growth_case_at_e4(self):
        """Degree 12 over genuine K coefficients at e = 4: without the
        adj(lead) normalization the chain's integers reach about 29k bits
        here and the reduction takes about a second; with it, 1.5k bits."""
        rng = random.Random("make/growth")

        def element():
            return D5.coeff(tuple(Fraction(rng.randint(1, 9), rng.choice([1, 2, 5])) for _ in range(4)))

        def polynomial(deg):
            return Polynomial.from_coeffs(D5, [element() for _ in range(deg + 1)])

        g = polynomial(4)
        num, den = polynomial(8) * g, polynomial(8) * g
        got = RationalFunction.make(num, den)
        assert got == make_oracle(num, den)
        assert got.num.degree == got.den.degree == 8


# -- planted certificates in ramified contexts at unramified sizes --------------
#
# reconstruct_rational on r/t plus pi^m noise, in the scan's setting: the
# target and its canonical lift as sources, each pair screened in the residue
# ring, the survivors checked exactly. The reductions of r and t mod pi have the
# degrees of r and t and no common factor, so a certificate r'/t' congruent to
# the target has deg r' >= deg r and deg t' >= deg t; no window before
# deg r + deg t + 1 yields one, and at that window the pair is r/t itself.
# The noise starts past the last window: inside the windows it would make the
# sweep return a different certificate that is equally valid mod pi^m.


def residue_degree_of_gcd(a, b, p):
    """Degree of the gcd over F_p of two integer rows (coefficients mod p)."""

    def strip(x):
        while x and not x[-1]:
            x.pop()
        return x

    u, v = strip([x % p for x in a]), strip([x % p for x in b])
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            c, shift = u[-1] * inv % p, len(u) - len(v)
            for j, x in enumerate(v):
                u[shift + j] = (u[shift + j] - c * x) % p
            strip(u)
        u, v = v, u
    return len(u) - 1


class TestPlantedRamifiedReconstruction:
    @pytest.mark.parametrize("ctx", MAKE_CONTEXTS, ids=lambda c: f"e{c.e}")
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_certificate_is_the_planted_rational(self, ctx, data):
        e, p = ctx.e, ctx.prime
        deg = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        order = data.draw(st.integers(max(2 * deg + 2, 12), 40))
        ints = st.integers(-(p**2), p**2)
        units = st.builds(lambda k, j: k + p * j, st.integers(1, p - 1), st.integers(-p, p))

        def rows(length, first=None):
            out = [data.draw(st.lists(ints, min_size=length, max_size=length)) for _ in range(e)]
            out[0][-1] = data.draw(units)  # a unit top coefficient
            if first is not None:
                for i, row in enumerate(out):
                    row[0] = first[i]
            return out

        t_rows = rows(data.draw(st.integers(1, deg)) + 1, first=[1] + [0] * (e - 1))
        r_rows = rows(data.draw(st.integers(0, deg)) + 1)
        assume(residue_degree_of_gcd(r_rows[0], t_rows[0], p) == 0)
        r, t = Polynomial.from_rows(ctx, 1, r_rows), Polynomial.from_rows(ctx, 1, t_rows)
        noise = [[0] * (2 * deg + 1) + data.draw(
            st.lists(ints, min_size=order - 2 * deg - 1, max_size=order - 2 * deg - 1)
        ) for _ in range(e)]
        g = RationalFunction(r, t).to_series(order)
        g = g + TruncSeries.from_rows(ctx, 1, noise) * ctx.pi() ** m
        cand, _ = reconstruct_rational(g, m, deg, "planted")
        assert cand == RationalFunction.make(r, t)
