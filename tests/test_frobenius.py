import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import (
    BadParameters,
    CartierError,
    Coefficient,
    NotInK0,
    NotMOM,
    OrderExhausted,
    PadicContext,
    ReconstructionFailed,
    SeriesKind,
    SeriesSpec,
    VerificationFailed,
    build,
)
from cartier import frobenius
from cartier.catalog import _apery_numbers
from cartier.diffops import SeriesMatrix, monicize, uniform_part
from cartier.frobenius import (
    antecedent_chain,
    antecedent_step,
    frobenius_ratio_certificate,
    integrality_check,
    logderiv_certificate,
    logderiv_from_frobenius,
    period_ratio_certificate,
    ratio_certificate,
    successive_frobenius_quotient,
)
from cartier.rational import (
    Polynomial,
    RationalFunction,
    VERIFY_NOT_K0,
    VERIFY_OK,
    canonical_lift,
    congruence_outcome,
    pade_pairs,
    product_congruence_outcome,
    reconstruct_rational,
)
from cartier.rings import INF
from cartier.series import TruncSeries
from test_diffops import const_ints

U2 = PadicContext.unramified(2)
U5 = PadicContext.unramified(5)
U7 = PadicContext.unramified(7)
D3 = PadicContext.dwork(3)
D5 = PadicContext.dwork(5)


# Series built straight from their closed forms, independent of any operator.

def geometric(ctx, order):
    return TruncSeries.from_coeffs(ctx, [1] * order)


def apery_series(ctx, order):
    return TruncSeries.from_coeffs(
        ctx,
        [
            sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))
            for n in range(order)
        ],
    )


def half_series(ctx, order):
    # (1-z)^(-1/2) = sum C(2n,n)/4^n z^n
    return TruncSeries.from_coeffs(
        ctx, [Fraction(math.comb(2 * n, n), 4**n) for n in range(order)]
    )


def exp_pi_series(ctx, order):
    pi = ctx.pi()
    return TruncSeries(
        tuple(pi**j * Fraction(1, math.factorial(j)) for j in range(order)), ctx
    )


def bessel_series(ctx, order):
    pi = ctx.pi()
    coeffs = [ctx.zero()] * order
    for n in range(0, (order + 1) // 2):
        coeffs[2 * n] = pi ** (2 * n) * Fraction(
            (-1) ** n, 4**n * math.factorial(n) ** 2
        )
    return TruncSeries(tuple(coeffs), ctx)


def gauss_op(ctx, order):
    return monicize([(0, [0, 0, 1]), (1, [Fraction(-1, 4), -1, -1])], ctx, order)


def apery_op(ctx, order):
    return monicize(
        [(0, [0, 0, 0, 1]), (1, [-5, -27, -51, -34]), (2, [1, 3, 3, 1])], ctx, order
    )


def exp_op(ctx, order):
    return monicize([(0, [0, 1]), (1, [-ctx.pi()])], ctx, order)


def diag_const(ctx, powers):
    return [
        [ctx.coeff(powers[i]) if i == j else ctx.zero() for j in range(len(powers))]
        for i in range(len(powers))
    ]


class TestAperyCatalog:
    def test_term_ratio_walk_equals_binomial_sum(self):
        # apery_series evaluates each binomial with math.comb
        entry = build(SeriesSpec(SeriesKind.APERY, PadicContext.unramified(5), 120))
        assert entry.series == apery_series(PadicContext.unramified(5), 120)

    def test_recurrence_equals_binomial_sum_to_order_342(self):
        # the catalog runs Apery's three-term recurrence; 342 is the order of
        # the gen and check-lucas jobs of the operators benchmark
        numbers = _apery_numbers(342)
        assert numbers == [
            sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))
            for n in range(342)
        ]
        assert _apery_numbers(1) == [1] and _apery_numbers(2) == [1, 5]


class TestAntecedentStep:
    def test_gauss_step_identities(self):
        L = gauss_op(U5, 40)
        step = antecedent_step(L, 40)
        assert step.level == 1
        assert step.passage.constant_matrix() == diag_const(U5, [1, 5])
        assert step.residual.is_zero()
        assert step.passage_min_valuation >= 0
        assert step.operator.is_mom
        # recompute the defining identity from scratch
        A = L.companion()
        resid = (
            step.passage.delta()
            - A.matmul(step.passage)
            + step.passage.matmul(step.companion.subst_zpk(1)).scale(U5.coeff(5))
        )
        assert resid.is_zero()
        # the produced operator annihilates the Cartier transform
        f = L.unit_solution(40)
        assert step.operator.apply(f.cartier()).is_zero()

    def test_scalar_exponential_step(self):
        L = exp_op(D3, 30)
        step = antecedent_step(L, 30)
        assert step.passage.size == 1
        assert step.passage.constant_matrix() == diag_const(D3, [1])
        assert step.residual.is_zero()
        assert step.passage_min_valuation >= 0
        f = L.unit_solution(30)
        assert step.operator.apply(f.cartier()).is_zero()

    def test_non_mom_rejected(self):
        L = monicize([(0, [-1, 1])], U5, 10)
        with pytest.raises(NotMOM):
            antecedent_step(L, 10)

    def test_order_beyond_coefficients(self):
        L = gauss_op(U5, 8)
        with pytest.raises(OrderExhausted):
            antecedent_step(L, 40)


class TestAntecedentChain:
    def test_every_level_is_verified(self, monkeypatch):
        # the chain builds level 1's companion and transformed solution once
        # and hands them to the step; every level still runs every check
        calls = []
        original = frobenius._verified_level

        def counting(level, *args):
            calls.append(level)
            return original(level, *args)

        monkeypatch.setattr(frobenius, "_verified_level", counting)
        antecedent_chain(gauss_op(U5, 60), 2, 60)
        assert calls == [1, 1, 2]
        calls.clear()
        antecedent_chain(gauss_op(U5, 60), 1, 60)
        assert calls == [1]

    def test_wrong_transformed_solution_is_caught(self):
        L = gauss_op(U5, 40)
        good = L.unit_solution(40).cartier()
        bump = TruncSeries.from_coeffs(U5, [0, 0, 0, 1] + [0] * (good.order - 4))
        with pytest.raises(VerificationFailed) as err:
            antecedent_step(L, 40, transformed=good + bump)
        assert err.value.order == 3

    def test_gauss_two_levels(self):
        L = gauss_op(U5, 60)
        levels = antecedent_chain(L, 2, 60)
        assert [lv.level for lv in levels] == [1, 2]
        assert levels[1].passage.constant_matrix() == diag_const(U5, [1, 25])
        for lv in levels:
            assert lv.residual.is_zero()
            assert lv.passage_min_valuation >= 0
        f = L.unit_solution(60)
        assert levels[0].operator.apply(f.cartier()).is_zero()
        assert levels[1].operator.apply(f.cartier().cartier()).is_zero()

    def test_two_level_passage_matches_direct_formula(self):
        # composing single steps must agree with the one-shot formula
        # Y * (Lambda^2(Y)(z^(p^2)))^(-1) * diag(1, p^2)
        L = gauss_op(U5, 60)
        levels = antecedent_chain(L, 2, 60)
        Y = uniform_part(L.companion(), 60)
        direct = (
            Y.matmul(Y.cartier().cartier().subst_zpk(2).invert_series())
            .matmul_const(*const_ints(diag_const(U5, [1, 25]), U5))
        )
        assert direct == levels[1].passage

    def test_apery_level_one(self):
        L = apery_op(U5, 50)
        levels = antecedent_chain(L, 1, 50)
        assert len(levels) == 1
        lv = levels[0]
        assert lv.passage.constant_matrix() == diag_const(U5, [1, 5, 25])
        assert lv.residual.is_zero()
        assert lv.passage_min_valuation >= 0
        assert lv.operator.apply(apery_series(U5, 50).cartier()).is_zero()

    def test_level_operators_solve_cartier_iterates(self):
        L = gauss_op(U5, 60)
        levels = antecedent_chain(L, 2, 60)
        f = L.unit_solution(60)
        assert levels[0].operator.unit_solution(12) == f.cartier()
        assert levels[1].operator.unit_solution(3) == f.cartier().cartier()

    def test_zero_levels(self):
        assert antecedent_chain(gauss_op(U5, 20), 0, 20) == []

    def test_order_exhausted(self):
        with pytest.raises(OrderExhausted):
            antecedent_chain(gauss_op(U5, 8), 2, 8)

    def test_report_shape(self):
        L = exp_op(D3, 12)
        lv = antecedent_chain(L, 1, 12)[0]
        report = lv.to_json_dict()
        assert report["level"] == 1
        assert report["operator_order"] == 1
        assert report["passage_min_valuation"] == 0
        assert report["residual_min_valuation"] is None
        assert report["checked_order"] == lv.checked_order


def recheck_level(L, lv, order):
    """Recompute level k's invariants from its fields: the passage identity
    delta(H) = A H - p^k H A_k(z^(p^k)), H(0) = diag(1, p^k, .., p^(k(n-1))),
    integral entries, and A_k's operator annihilating the k-th Cartier
    transform of L's unit solution."""
    ctx, k, n = L.ctx, lv.level, L.order
    A = L.companion().truncate(order)
    H = lv.passage
    lhs = H.delta()
    rhs = A.matmul(H) - H.matmul(lv.companion.subst_zpk(k)).scale(ctx.coeff(ctx.prime**k))
    assert (lhs - rhs).is_zero()
    assert H.constant_matrix() == diag_const(ctx, [ctx.prime ** (k * i) for i in range(n)])
    assert H.min_valuation() >= 0
    f = L.unit_solution(order)
    for _ in range(k):
        f = f.cartier()
    assert lv.operator.apply(f.truncate(lv.operator.series_order)).is_zero()


HYP_ALPHAS = st.sampled_from(
    [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4),
     Fraction(1, 5), Fraction(1, 6), Fraction(5, 6), Fraction(1, 1)]
)


class TestAntecedentChainProperty:
    """antecedent_chain on catalog 2F1 entries, unramified and in Dwork's
    Q_p(pi) at p = 3 and 5 (e = 1, 2, 4): it returns levels whose
    invariants re-check, or raises a CartierError, and nothing else."""

    @given(
        ctx=st.sampled_from([U5, PadicContext.unramified(3), D3, D5]),
        alphas=st.tuples(HYP_ALPHAS, HYP_ALPHAS),
        order=st.integers(2, 40),
        levels=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_recheck_or_a_named_error(self, ctx, alphas, order, levels):
        L = build(SeriesSpec(SeriesKind.HYPERGEOMETRIC, ctx, order, alphas=alphas)).operator
        try:
            out = antecedent_chain(L, levels, order)
        except CartierError:
            return
        assert [lv.level for lv in out] == list(range(1, levels + 1))
        for lv in out:
            recheck_level(L, lv, order)

    @pytest.mark.parametrize(
        "ctx, alphas, order",
        [
            (U5, (Fraction(1, 3), Fraction(2, 3)), 40),
            (D3, (Fraction(1, 2),) * 2, 40),
            (D5, (Fraction(1, 2),) * 2, 30),
        ],
        ids=lambda v: f"e{v.e}" if isinstance(v, PadicContext) else None,
    )
    def test_two_levels_descend(self, ctx, alphas, order):
        L = build(SeriesSpec(SeriesKind.HYPERGEOMETRIC, ctx, order, alphas=alphas)).operator
        out = antecedent_chain(L, 2, order)
        assert [lv.level for lv in out] == [1, 2]
        for lv in out:
            recheck_level(L, lv, order)


COEFFICIENT_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "inverse",
)


@pytest.mark.parametrize("ctx", [U5, D3, D5], ids=lambda c: f"e{c.e}")
class TestRowsOnly:
    """The antecedent chain and the series-matrix inverse run on integer rows:
    with every arithmetic operation of Coefficient made to raise, after the
    operator is built, they still complete."""

    ORDER = 30

    def operator(self, ctx):
        spec = SeriesSpec(SeriesKind.HYPERGEOMETRIC, ctx, self.ORDER, alphas=(Fraction(1, 2),) * 2)
        return build(spec).operator

    def forbid_coefficient_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Coefficient arithmetic in the integer kernel")

        for name in COEFFICIENT_ARITHMETIC:
            monkeypatch.setattr(Coefficient, name, refuse)

    def test_antecedent_chain(self, ctx, monkeypatch):
        L = self.operator(ctx)
        self.forbid_coefficient_arithmetic(monkeypatch)
        levels = antecedent_chain(L, 2, self.ORDER)
        assert [lv.to_json_dict()["level"] for lv in levels] == [1, 2]

    def test_invert_series(self, ctx, monkeypatch):
        a1, a2 = self.operator(ctx).coeffs
        one = TruncSeries.one(ctx, self.ORDER)
        # constant term [[0, 1], [pi, 0]]: a row swap, and pi in the inverse
        m = SeriesMatrix.from_rows([[a1, one + a2], [one * ctx.pi() + a2, a1]])
        self.forbid_coefficient_arithmetic(monkeypatch)
        inv = m.invert_series()
        assert m.matmul(inv) == SeriesMatrix.identity(ctx, 2, self.ORDER)


class TestIntegralityCheck:
    def test_bessel_valuations(self):
        f = bessel_series(D3, 19)
        # v(coefficient of z^(2n)) is twice the base-3 digit sum of n
        for n in range(1, 9):
            digits = 0
            k = n
            while k:
                digits += k % 3
                k //= 3
            assert f[2 * n].valuation() == 2 * digits
        report = integrality_check(f, 2)
        assert report.passed
        assert report.checked_upto == 8
        assert report.min_valuation == 2
        assert report.first_failure is None

    def test_apery_integral(self):
        report = integrality_check(apery_series(U5, 40), 2)
        assert report.passed
        assert report.min_valuation == 0

    def test_half_fails_at_two(self):
        report = integrality_check(half_series(U2, 10), 1)
        assert not report.passed
        assert report.first_failure == 1
        assert report.min_valuation == -1
        assert report.checked_upto == 1

    def test_requires_unit_start(self):
        with pytest.raises(ValueError):
            integrality_check(TruncSeries.from_coeffs(U5, [2, 1]), 1)

    def test_json_shape(self):
        report = integrality_check(apery_series(U5, 30), 1)
        data = report.to_json_dict()
        assert data == {
            "level": 1,
            "checked_upto": 4,
            "min_valuation": 0,
            "first_failure": None,
            "passed": True,
        }


class TestRatioCertificate:
    def test_geometric_every_level(self):
        f = geometric(U5, 60)
        expected = RationalFunction.make(
            Polynomial.from_coeffs(U5, [1, 0, 0, 0, 0, -1]),
            Polynomial.from_coeffs(U5, [1, -1]),
        )
        for m in (1, 2, 3):
            cert = ratio_certificate(f, m, 6)
            assert cert.kind == "ratio"
            assert cert.level == m
            assert cert.rational == expected
            assert cert.min_residual_valuation == INF

    def test_apery_returns_lucas_truncation(self):
        f = apery_series(U5, 60)
        cert = ratio_certificate(f, 1, 4)
        assert cert.rational == RationalFunction.from_polynomial(
            Polynomial.from_coeffs(U5, [1, 5, 73, 1445, 33001])
        )
        # independent re-check of the defining congruence
        u = f.cartier().subst_zpk(1).truncate(60)
        prod = cert.rational.to_series(60) * u
        assert prod.congruent_mod(f, 1, 60)
        assert cert.rational.has_gauss_norm_one()
        assert cert.rational.denominator_unit_disc_free()

    def test_degree_zero_fails(self):
        with pytest.raises(ReconstructionFailed) as err:
            ratio_certificate(apery_series(U5, 40), 1, 0)
        assert err.value.deg_bound == 0

    def test_requires_unit_start(self):
        with pytest.raises(ValueError):
            ratio_certificate(TruncSeries.from_coeffs(U5, [0, 1]), 1, 2)


class TestPeriodRatioCertificate:
    def test_geometric_trivial(self):
        cert = period_ratio_certificate(geometric(U5, 40), 1, 1, 4)
        assert cert.kind == "period-ratio"
        assert cert.level == 1
        assert cert.rational == RationalFunction.constant(U5, 1)

    def test_apery_lucas_congruence(self):
        cert = period_ratio_certificate(apery_series(U5, 60), 1, 1, 4)
        assert cert.rational == RationalFunction.constant(U5, 1)
        assert cert.min_residual_valuation >= 1

    def test_order_exhausted(self):
        with pytest.raises(OrderExhausted):
            period_ratio_certificate(geometric(U5, 10), 1, 2, 4)

    def test_no_small_certificate(self):
        # frozen arbitrary digits with no low-degree structure; long enough
        # that the post-Cartier window overdetermines a degree-1 candidate
        f = TruncSeries.from_coeffs(
            U5,
            [1, 3, 4, 3, 3, 4, 4, 1, 1, 4, 3, 4, 1, 0, 3,
             2, 1, 0, 4, 0, 4, 3, 3, 4, 1, 4, 0, 4, 0, 0],
        )
        with pytest.raises(ReconstructionFailed):
            period_ratio_certificate(f, 1, 1, 1)


class TestFrobeniusRatioCertificate:
    def test_geometric_closed_form(self):
        f = geometric(U5, 60)
        cert = frobenius_ratio_certificate(f, 1, 1, 6)
        assert cert.kind == "frobenius-ratio"
        assert cert.level == 1
        assert cert.rational == RationalFunction.make(
            Polynomial.from_coeffs(U5, [1, 0, 0, 0, 0, -1]),
            Polynomial.from_coeffs(U5, [1, -1]),
        )
        assert cert.min_residual_valuation == INF

    def test_level_zero_is_one(self):
        cert = frobenius_ratio_certificate(geometric(U5, 20), 1, 0, 4)
        assert cert.rational == RationalFunction.constant(U5, 1)
        assert cert.level == 0
        assert cert.min_residual_valuation == INF

    def test_exp_dwork(self):
        f = exp_pi_series(D3, 30)
        cert = frobenius_ratio_certificate(f, 1, 1, 4)
        assert cert.rational == RationalFunction.constant(D3, 1)
        # f and f(z^3) differ, so the residual is finite but positive
        assert 1 <= cert.min_residual_valuation < INF
        sub = f.subst_zpk(1).truncate(30)
        resid = cert.rational.to_series(30) * sub - f
        assert resid.min_valuation() >= 1

    def test_successive_quotient_geometric(self):
        f = geometric(U5, 60)
        cert = successive_frobenius_quotient(f, 1, 1, 24)
        assert cert.kind == "frobenius-quotient"
        assert cert.level == 1
        assert cert.rational == RationalFunction.from_polynomial(
            Polynomial.from_coeffs(U5, [1, 1, 1, 1, 1])
        )
        assert cert.min_residual_valuation == INF


class TestLogderivCertificate:
    def test_exp_constant(self):
        f = exp_pi_series(D3, 30)
        cert = logderiv_certificate(f, 1, 2, 2)
        assert cert.kind == "logderiv"
        assert cert.level == 2
        assert cert.rational == RationalFunction.constant(D3, D3.pi())
        assert cert.min_residual_valuation == INF

    def test_half_exact(self):
        f = half_series(U5, 40)
        cert = logderiv_certificate(f, 1, 2, 4)
        assert cert.rational == RationalFunction.make(
            Polynomial.from_coeffs(U5, [Fraction(1, 2)]),
            Polynomial.from_coeffs(U5, [1, -1]),
        )
        assert cert.min_residual_valuation == INF

    def test_apery_lucas_truncation_logderiv(self):
        # the derivative of the level-1 ratio certificate is itself a valid
        # logarithmic-derivative approximant mod pi
        f = apery_series(U5, 60)
        F4 = Polynomial.from_coeffs(U5, [1, 5, 73, 1445, 33001])
        cand = RationalFunction.make(F4.derivative(), F4)
        g = f.log_derivative()
        verdict, resid = congruence_outcome(cand, g, 1, g.order, require_norm_one=False)
        assert verdict == VERIFY_OK and resid >= 1

    def test_fallback_route(self):
        f = geometric(U5, 60)
        cert = logderiv_from_frobenius(f, 1, 1, 8)
        assert cert.kind == "logderiv"
        assert cert.rational == RationalFunction.make(
            Polynomial.from_coeffs(U5, [1, 2, 3, 4]),
            Polynomial.from_coeffs(U5, [1, 1, 1, 1, 1]),
        )
        g = f.log_derivative()
        verdict, resid = congruence_outcome(cert.rational, g, 1, g.order, require_norm_one=False)
        assert verdict == VERIFY_OK
        assert resid == cert.min_residual_valuation >= 1

    @pytest.mark.parametrize("h", [0, -1])
    def test_period_must_be_positive(self, h):
        f = half_series(U5, 20)
        with pytest.raises(BadParameters):
            logderiv_certificate(f, h, 1, 4)
        with pytest.raises(BadParameters):
            logderiv_from_frobenius(f, h, 1, 4)

    def test_json_report(self):
        cert = logderiv_certificate(exp_pi_series(D3, 20), 1, 2, 2)
        data = cert.to_json_dict()
        assert data == {
            "kind": "logderiv",
            "level": 2,
            "rational": {"num": ["pi"], "den": ["1"]},
            "verified_order": 19,
            "min_residual_valuation": None,
        }


class TestDerivedCertificatesAreVerified:
    """successive_frobenius_quotient and logderiv_from_frobenius derive
    their candidate from Frobenius ratio certificates and verify it before
    returning it: fed a wrong ratio certificate, they raise."""

    def test_wrong_ratio_certificate_is_caught(self, monkeypatch):
        f = geometric(U5, 24)
        wrong = frobenius.Certificate("frobenius-ratio", 1, RationalFunction.constant(U5, 2), 24, INF)
        monkeypatch.setattr(frobenius, "frobenius_ratio_certificate", lambda *args: wrong)
        with pytest.raises(VerificationFailed, match="^successive quotient fails its congruence$"):
            successive_frobenius_quotient(f, 1, 1, 4)
        with pytest.raises(VerificationFailed, match="^differentiated certificate misses the congruence$"):
            logderiv_from_frobenius(f, 1, 1, 4)


# -- the one certificate search against the unscreened callback sweep ---------
#
# callback_sweep is the certificate search without the residue screen: the
# Pade windows of each source, every candidate handed to a verify callback.
# Each certificate is rebuilt on it from its own target, mult and Gauss-norm
# requirement, and reconstruct_rational must give the same rational, or fail
# with the same NotInK0 or ReconstructionFailed.


def callback_sweep(sources, deg_bound, verify):
    seen, saw_k0_reject = set(), False
    for src in sources:
        for window in range(1, min(2 * deg_bound + 1, src.order) + 1):
            for r, t in pade_pairs(src, window):
                if t.degree > deg_bound:
                    break
                if r.degree > deg_bound or t.vanishes_at_zero():
                    continue
                cand = RationalFunction.from_coprime(r, t)
                if cand in seen:
                    continue
                seen.add(cand)
                verdict = verify(cand)
                if verdict == VERIFY_OK:
                    return cand
                saw_k0_reject |= verdict == VERIFY_NOT_K0
    if saw_k0_reject:
        raise NotInK0("reference")
    raise ReconstructionFailed("reference", deg_bound=deg_bound)


def reference_search(target, m, deg_bound, mult=None, require_norm_one=False):
    upto = target.order
    g = target if mult is None else target * mult.invert_unit()
    sources = [g, canonical_lift(g, m)] if g.min_valuation() >= 0 else [g]

    def verify(cand):
        if mult is None:
            return congruence_outcome(cand, target, m, upto, require_norm_one)[0]
        return product_congruence_outcome(cand, mult, target, m, upto, require_norm_one)[0]

    return callback_sweep(sources, deg_bound, verify)


def outcome(search):
    """The rational a search returns, or the type of its failure."""
    try:
        return search()
    except (NotInK0, ReconstructionFailed) as exc:
        return type(exc)


def pole_series(ctx, order):
    """(1 + z)/(1 - z/p): a denominator root inside the open unit disc."""
    den = Polynomial.from_coeffs(ctx, [1, Fraction(-1, ctx.prime)])
    return RationalFunction.make(Polynomial.from_coeffs(ctx, [1, 1]), den).to_series(order)


def digit_series(ctx, order):
    """1 followed by frozen pseudo-random digits: no structure to find."""
    p, e = ctx.prime, ctx.e
    return TruncSeries.from_coeffs(
        ctx, [1] + [tuple((7 * n + 3 * i) % p for i in range(e)) for n in range(1, order)]
    )


def certificate_cases(ctx):
    makers = [geometric, apery_series, half_series, pole_series, digit_series]
    if ctx.e > 1:
        makers += [exp_pi_series, bessel_series]
    for make in makers:
        for order in (12, 20):
            f = make(ctx, order)
            for m in (1, 2, 3):
                for deg in (1, 3):
                    yield f, m, deg


class TestOneSearchAgainstCallbackSweep:
    @pytest.mark.parametrize("ctx", [U2, U5, D3, D5], ids=["p2", "e1", "e2", "e4"])
    def test_every_certificate_matches_the_unscreened_sweep(self, ctx):
        seen = set()
        for f, m, deg in certificate_cases(ctx):
            u = f.cartier().subst_zpk(1)
            upto = min(f.order, u.order)
            target, u = f.truncate(upto), u.truncate(upto)
            got = outcome(lambda: ratio_certificate(f, m, deg))
            want = outcome(lambda: reference_search(target, m, deg, u, True))
            if isinstance(got, type):
                assert got is want, ("ratio", m, deg)
            else:
                assert got.rational == want, ("ratio", m, deg)
                resid = (want.to_series(upto) * u - target).min_valuation()
                assert got.min_residual_valuation == resid
            seen.add(got if isinstance(got, type) else "ok")

            lam = f
            for _ in range(m):
                lam = lam.cartier()
            if lam.order >= 2:
                g = lam * f.truncate(lam.order).invert_unit()
                got = outcome(lambda: period_ratio_certificate(f, 1, m, deg).rational)
                assert got == outcome(lambda: reference_search(g, m, deg, None, True))

            u = f.subst_zpk(m).truncate(f.order)
            got = outcome(lambda: frobenius_ratio_certificate(f, 1, m, deg).rational)
            assert got == outcome(lambda: reference_search(f, m, deg, u, True))

            g = f.log_derivative()
            got = outcome(lambda: reconstruct_rational(g, m, deg, "logderiv")[0])
            want = outcome(lambda: reference_search(g, m, deg))
            assert got == want, ("logderiv", m, deg)
            if want is ReconstructionFailed:
                want = outcome(lambda: logderiv_from_frobenius(f, 1, m, deg).rational)
            assert outcome(lambda: logderiv_certificate(f, 1, m, deg).rational) == want
            seen.add(got if isinstance(got, type) else "ok")
        assert seen == {"ok", NotInK0, ReconstructionFailed}
