import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import BadParameters, NotAUnit, OrderExhausted, PadicContext, dependence, rational
from cartier.cli import main
from cartier.dependence import (
    _normalized_derivative,
    analytic_element_certificate,
    kolchin_scan,
    product_power,
)
from cartier.rational import Polynomial, RationalFunction, VERIFY_OK, congruence_outcome
from cartier.series import TruncSeries

U5 = PadicContext.unramified(5)
U7 = PadicContext.unramified(7)


def geometric(ctx, order):
    return TruncSeries.from_coeffs(ctx, [1] * order)


def half_series(ctx, order):
    # (1-z)^(-1/2) = sum C(2n,n)/4^n z^n
    return TruncSeries.from_coeffs(
        ctx, [Fraction(math.comb(2 * n, n), 4**n) for n in range(order)]
    )


def apery_series(ctx, order):
    return TruncSeries.from_coeffs(
        ctx,
        [
            sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))
            for n in range(order)
        ],
    )


def gauss_series(ctx, order):
    # 2F1(1/2,1/2;1;z) = sum (C(2n,n)/4^n)^2 z^n
    return TruncSeries.from_coeffs(
        ctx, [Fraction(math.comb(2 * n, n), 4**n) ** 2 for n in range(order)]
    )


def rat(ctx, num, den):
    return RationalFunction.make(
        Polynomial.from_coeffs(ctx, num), Polynomial.from_coeffs(ctx, den)
    )


class TestProductPower:
    def test_inverse_pair_cancels(self):
        f = half_series(U7, 30)
        assert product_power([f, f], (1, -1)) == TruncSeries.one(U7, 30)

    def test_square_of_half_is_geometric(self):
        f = half_series(U7, 30)
        assert product_power([f], (2,)) == geometric(U7, 30)

    def test_zero_exponents_give_one(self):
        f = apery_series(U5, 12)
        assert product_power([f, f], (0, 0)) == TruncSeries.one(U5, 12)

    def test_common_order_is_the_minimum(self):
        a = geometric(U7, 20)
        b = geometric(U7, 13)
        assert product_power([a, b], (1, 1)).order == 13

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_power([geometric(U7, 5)], (1, 2))

    def test_empty_product(self):
        with pytest.raises(ValueError):
            product_power([], ())

    def test_negative_power_needs_a_unit(self):
        f = TruncSeries.from_coeffs(U7, [0, 1, 1, 1])
        with pytest.raises(NotAUnit):
            product_power([f], (-1,))

    def test_non_unit_with_exponent_zero(self):
        f = TruncSeries.from_coeffs(U7, [0, 1, 1, 1])
        assert product_power([f, geometric(U7, 4)], (0, -1)) == TruncSeries.from_coeffs(
            U7, [1, -1, 0, 0]
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=6, max_size=6), min_size=1, max_size=3
        ),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    def test_opposite_exponents_cancel(self, tails, exps):
        fs = [TruncSeries.from_coeffs(U5, [1] + tail) for tail in tails]
        exps = tuple(exps[: len(fs)])
        forward = product_power(fs, exps)
        backward = product_power(fs, tuple(-a for a in exps))
        assert forward * backward == TruncSeries.one(U5, 7)


def ref_product(fs, exps):
    """prod f_i^(a_i) by repeated products with f_i or its inverse."""
    order = min(f.order for f in fs)
    acc = TruncSeries.one(fs[0].ctx, order)
    for f, a in zip(fs, exps):
        if a == 0:
            continue
        f = f.truncate(order)
        factor = f if a > 0 else f.invert_unit()
        for _ in range(abs(a)):
            acc = acc * factor
    return acc


class TestProductPowerAgainstReference:
    @pytest.mark.parametrize(
        "ctx", [U5, PadicContext.dwork(3), PadicContext.dwork(5)], ids=lambda c: f"e{c.e}"
    )
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_repeated_products(self, ctx, data):
        p = ctx.prime
        fs, exps = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            order = data.draw(st.integers(1, 9))
            rows = [
                data.draw(st.lists(st.integers(-(p**2), p**2), min_size=order, max_size=order))
                for _ in range(ctx.e)
            ]
            if data.draw(st.booleans()):  # a non-unit: the constant term vanishes
                for row in rows:
                    row[0] = 0
            fs.append(TruncSeries.from_rows(ctx, data.draw(st.sampled_from([1, 2, p])), rows))
            exps.append(data.draw(st.integers(-4, 4)))
        exps = tuple(exps)
        if any(a < 0 and not any(row[0] for row in f.rows) for f, a in zip(fs, exps)):
            with pytest.raises(NotAUnit):
                product_power(fs, exps)
        else:
            assert product_power(fs, exps) == ref_product(fs, exps)


class TestAnalyticElementCertificate:
    def test_geometric_series(self):
        r = analytic_element_certificate(geometric(U7, 10), 2, 5)
        assert r == rat(U7, [1], [1, -1])

    def test_polynomial_comes_back_as_itself(self):
        g = TruncSeries.from_coeffs(U7, [1, 3, 1] + [0] * 17)
        r = analytic_element_certificate(g, 2, 5)
        assert r == rat(U7, [1, 3, 1], [1])

    def test_half_power_has_no_certificate(self):
        # (1-z)^(-1/2) is not congruent mod 7 to any small rational function
        assert analytic_element_certificate(half_series(U7, 40), 1, 10) is None

    def test_integrality_precondition(self):
        U2 = PadicContext.unramified(2)
        with pytest.raises(ValueError):
            analytic_element_certificate(half_series(U2, 8), 1, 4)


class TestKolchinScan:
    def test_square_relation_found_on_the_ray(self):
        rep = kolchin_scan([half_series(U7, 48)], 2, 2, 10)
        assert [f.exponents for f in rep.findings] == [(2,)]
        found = rep.findings[0]
        assert found.product.rational == rat(U7, [1], [1, -1])
        assert found.screen.rational == rat(U7, [1], [1, -1])
        assert rep.stats == {
            "rays": 1,
            "tuples_tested": 2,
            "screened_out": 0,
            "findings": 1,
        }

    def test_duplicated_series(self):
        f = half_series(U7, 40)
        rep = kolchin_scan([f, f], 2, 2, 10)
        assert [fi.exponents for fi in rep.findings] == [
            (0, 2),
            (1, -1),
            (1, 1),
            (2, 0),
        ]
        by_exps = {fi.exponents: fi for fi in rep.findings}
        assert by_exps[(1, -1)].product.rational == rat(U7, [1], [1])

    def test_series_against_its_inverse(self):
        f = half_series(U7, 40)
        rep = kolchin_scan([f, f.invert_unit()], 1, 2, 10)
        by_exps = {fi.exponents: fi for fi in rep.findings}
        assert set(by_exps) == {(1, -1), (1, 1)}
        assert by_exps[(1, 1)].product.rational == rat(U7, [1], [1])
        assert by_exps[(1, -1)].product.rational == rat(U7, [1], [1, -1])

    def test_derivative_control(self):
        # f = (1-z)^(-1/2) and f' generate (1-z)^(-1/2) and (1-z)^(-3/2)
        # after leading-term normalization, so a tuple certifies exactly
        # when a1 + 3*a2 is even; the f^3/f' ray carries the constant.
        f = half_series(U7, 40)
        rep = kolchin_scan([f, f], 4, 2, 10, derivative_orders=(0, 1))
        assert [fi.exponents for fi in rep.findings] == [
            (0, 2),
            (1, -3),
            (1, -1),
            (1, 1),
            (1, 3),
            (2, -4),
            (2, 0),
            (2, 4),
            (3, -1),
            (3, 1),
            (4, -2),
            (4, 2),
        ]
        by_exps = {fi.exponents: fi for fi in rep.findings}
        assert by_exps[(3, -1)].product.rational == rat(U7, [1], [1])
        assert by_exps[(0, 2)].product.rational == rat(U7, [1], [1, -3, 3, -1])

    def test_single_series_derivative_normalization(self):
        # 2f' = (1-z)^(-3/2), so its square certifies as 1/(1-z)^3
        rep = kolchin_scan([half_series(U7, 36)], 2, 2, 10, derivative_orders=(1,))
        assert [fi.exponents for fi in rep.findings] == [(2,)]
        assert rep.findings[0].product.rational == rat(U7, [1], [1, -3, 3, -1])

    def test_negative_control_screens_everything_out(self):
        rep = kolchin_scan(
            [apery_series(U5, 32), gauss_series(U5, 32)], 1, 2, 8
        )
        assert rep.findings == ()
        assert rep.stats["tuples_tested"] == 4
        assert rep.stats["screened_out"] == 4
        # the negative report still embeds the box it scanned
        d = rep.to_json_dict()
        assert (d["exp_bound"], d["level"], d["deg_bound"]) == (1, 2, 8)

    def test_constant_term_precondition(self):
        f = TruncSeries.from_coeffs(U7, [2, 1, 1])
        with pytest.raises(NotAUnit):
            kolchin_scan([f], 1, 1, 2)

    def test_negative_derivative_order(self):
        with pytest.raises(BadParameters):
            kolchin_scan([half_series(U7, 12)], 1, 1, 2, derivative_orders=(-1,))

    @pytest.mark.parametrize("level", [0, -1])
    def test_level_below_one(self, monkeypatch, level):
        # no tuple of a series with 1/7 in it gives an integral target, so
        # no search would reach the level: it is checked before any search
        def no_search(*args):
            raise AssertionError("a certificate search ran")

        monkeypatch.setattr(dependence, "_certificate", no_search)
        f = TruncSeries.from_coeffs(U7, [1, Fraction(1, 7), 0, 0])
        with pytest.raises(BadParameters, match="level must be >= 1"):
            kolchin_scan([f], 1, level, 2)

    @pytest.mark.parametrize("exp_bound, deg_bound", [(0, 2), (-1, 2), (1, -1)])
    def test_empty_box_or_negative_degree(self, exp_bound, deg_bound):
        with pytest.raises(BadParameters, match="bound must be"):
            kolchin_scan([half_series(U7, 12)], exp_bound, 1, deg_bound)

    def test_vanishing_derivative(self):
        ones = TruncSeries.from_coeffs(U7, [1, 0, 0, 0])
        with pytest.raises(OrderExhausted):
            kolchin_scan([ones], 1, 1, 2, derivative_orders=(1,))

    def test_names_are_embedded(self):
        f = half_series(U7, 20)
        rep = kolchin_scan([f], 1, 1, 4, names=("halfpow",))
        assert rep.series_names == ("halfpow",)
        with pytest.raises(ValueError):
            kolchin_scan([f], 1, 1, 4, names=("a", "b"))

    def test_report_json_is_frozen(self):
        rep = kolchin_scan([half_series(U7, 48)], 2, 2, 10)
        assert json.dumps(rep.to_json_dict(), sort_keys=True) == (
            '{"deg_bound": 10, "derivative_orders": null, "exp_bound": 2, '
            '"findings": [{"exponents": [2], "logderiv": {"kind": "logderiv-screen", '
            '"level": 2, "min_residual_valuation": null, "rational": '
            '{"den": ["1", "-1"], "num": ["1"]}, "verified_order": 47}, '
            '"product": {"kind": "product", "level": 2, '
            '"min_residual_valuation": null, "rational": '
            '{"den": ["1", "-1"], "num": ["1"]}, "verified_order": 48}}], '
            '"level": 2, "series": ["f1"], "stats": {"findings": 1, "rays": 1, '
            '"screened_out": 0, "tuples_tested": 2}}'
        )

    def test_certificate_survives_retruncation(self):
        rep = kolchin_scan([half_series(U7, 48)], 2, 2, 10)
        cert = rep.findings[0].product
        shorter = product_power([half_series(U7, 30)], rep.findings[0].exponents)
        verdict, resid = congruence_outcome(
            cert.rational, shorter, 2, 30, require_norm_one=False
        )
        assert verdict == VERIFY_OK and resid >= 2


class TestNormalizedDerivative:
    @pytest.mark.parametrize(
        "ctx", [U7, PadicContext.dwork(3), PadicContext.dwork(5)], ids=lambda c: f"e{c.e}"
    )
    def test_equals_the_coefficient_division(self, ctx):
        rng = random.Random(f"normalized/{ctx.e}")
        for r in (0, 1, 2):
            # leading zeros after r derivatives, and p in some denominators
            dens = (1, 2, ctx.prime)
            values = [0] * rng.randint(0, 2) + [
                ctx.coeff([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(ctx.e)])
                for _ in range(10)
            ]
            values[-10] = ctx.coeff(rng.choice([1, ctx.prime, Fraction(1, ctx.prime)]))
            f = TruncSeries(tuple(values), ctx)
            g = f
            for _ in range(r):
                g = g.d_dz()
            lead = next(j for j, c in enumerate(g.coeffs) if not c.is_zero())
            inv = g[lead].inverse()
            want = TruncSeries(tuple(inv * c for c in g.coeffs[lead:]), ctx)
            got = _normalized_derivative(f, r)
            assert got == want
            assert got[0] == ctx.one()


class TestCertificateFilterGuard:
    """The least window in the scan: on a negative-control scan in Q_3(pi),
    every search it rules out runs no Pade chain at all, every other one
    runs none below its least window, and the report is the one the full
    sweep produced."""

    ARGS = [
        "scan", "--series", "apery", "--series", "bessel", "--prime", "3", "--dwork",
        "--order", "20", "--exp-bound", "2", "--level", "3", "--deg-bound", "5",
    ]
    # stdout of the scan before the filter existed
    SHA256 = "1599355bf6fc5a13acfcfe10961f20696400d1ec099ef8cc17661a8e416c7feb"

    def test_pruned_searches_call_no_pade(self, monkeypatch):
        searches = []  # [least window, windows of the Pade chains run] per search
        real_pairs = rational.pade_pairs
        real_least = dependence.least_window
        real_certificate = dependence._certificate

        def pade_pairs(f, window):
            searches[-1][1].append(window)
            return real_pairs(f, window)

        def least_window(res, deg_bound):
            searches[-1][0] = real_least(res, deg_bound)
            return searches[-1][0]

        def certificate(*args):
            searches.append([None, []])
            return real_certificate(*args)

        monkeypatch.setattr(rational, "pade_pairs", pade_pairs)
        monkeypatch.setattr(dependence, "least_window", least_window)
        monkeypatch.setattr(dependence, "_certificate", certificate)
        result = CliRunner().invoke(main, self.ARGS)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == self.SHA256
        pruned = [windows for first, windows in searches if first is None]
        swept = [(first, windows) for first, windows in searches if first is not None]
        assert len(pruned) == 12 and len(swept) == 12
        assert pruned == [[]] * 12
        assert all(windows and min(windows) >= first for first, windows in swept)

    def test_each_search_reduces_its_target_once(self, monkeypatch):
        reductions = [0]
        searches = [0]
        real_init = rational.ResidueTarget.__init__
        real_certificate = dependence._certificate

        def init(self, *args):
            reductions[0] += 1
            real_init(self, *args)

        def certificate(*args):
            searches[0] += 1
            return real_certificate(*args)

        monkeypatch.setattr(rational.ResidueTarget, "__init__", init)
        monkeypatch.setattr(dependence, "_certificate", certificate)
        result = CliRunner().invoke(main, self.ARGS)
        assert hashlib.sha256(result.output.encode()).hexdigest() == self.SHA256
        assert searches[0] == 24
        assert reductions[0] == searches[0]


class TestScanPowerTable:
    """Outside its certificate searches, the negative-e2 scan of the
    scan-ramified benchmark takes every product from the scan's power
    table: no pow_int, and no series inverted twice."""

    def test_products_come_from_one_table(self, monkeypatch):
        outside = [True]
        pows, inverted = [0], []
        real_pow = TruncSeries.pow_int
        real_invert = TruncSeries.invert_unit
        real_certificate = dependence._certificate

        def pow_int(self, n):
            pows[0] += outside[0]
            return real_pow(self, n)

        def invert_unit(self):
            if outside[0]:
                inverted.append(self)
            return real_invert(self)

        def certificate(*args):
            outside[0] = False
            try:
                return real_certificate(*args)
            finally:
                outside[0] = True

        monkeypatch.setattr(TruncSeries, "pow_int", pow_int)
        monkeypatch.setattr(TruncSeries, "invert_unit", invert_unit)
        monkeypatch.setattr(dependence, "_certificate", certificate)
        scan = TestCertificateFilterGuard
        result = CliRunner().invoke(main, scan.ARGS)
        assert hashlib.sha256(result.output.encode()).hexdigest() == scan.SHA256
        assert pows[0] == 0
        assert inverted and len(set(inverted)) == len(inverted)


def scan_series(ctx, data, order, level):
    """A series with constant term 1 for the scan: a planted rational r/t
    (t(0) = 1, integral) plus pi^level times integral noise, (1 - z)^(-1/2),
    or 1 plus integral noise."""
    e, p = ctx.e, ctx.prime
    ints = st.integers(-(p**2), p**2)

    def unit_rows(length):
        """Integral rows of this length whose constant term is 1."""
        rows = [data.draw(st.lists(ints, min_size=length, max_size=length)) for _ in range(e)]
        for i, row in enumerate(rows):
            row[0] = int(i == 0)
        return rows

    kind = data.draw(st.sampled_from(["planted", "root", "noise"]))
    if kind == "root":
        return half_series(ctx, order)
    noisy = TruncSeries.from_rows(ctx, 1, unit_rows(order))
    if kind == "noise":
        return noisy
    r = Polynomial.from_rows(ctx, 1, unit_rows(data.draw(st.integers(1, 4))))
    t = Polynomial.from_rows(ctx, 1, unit_rows(data.draw(st.integers(1, 4))))
    noise = noisy - TruncSeries.one(ctx, order)
    return RationalFunction(r, t).to_series(order) + noise * ctx.pi() ** level


class TestScanFromTheLeastWindow:
    """kolchin_scan, whose searches sweep from their least window, reports
    exactly what it reports when every admitted search sweeps from window 1."""

    @pytest.mark.parametrize(
        "ctx", [U5, PadicContext.dwork(3), PadicContext.dwork(5)], ids=lambda c: f"e{c.e}"
    )
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_report_equals_the_sweep_from_window_one(self, ctx, data):
        order = data.draw(st.integers(2, 40))
        level = data.draw(st.integers(1, 4))
        deg = data.draw(st.integers(0, 6))
        exp_bound = data.draw(st.integers(1, 2))
        fs = [scan_series(ctx, data, order, level) for _ in range(data.draw(st.integers(1, 2)))]
        report = kolchin_scan(fs, exp_bound, level, deg)
        real_least = dependence.least_window
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                dependence,
                "least_window",
                lambda res, deg_bound: None if real_least(res, deg_bound) is None else 1,
            )
            reference = kolchin_scan(fs, exp_bound, level, deg)
        assert report == reference


class TestNoExpansionPerCertificate:
    """In a screened scan the residue screen decides every candidate
    exactly, so each certificate search verifies one candidate, and the
    verification decides the congruence and the reported residual valuation
    from one product num - den * target, with no series inverse. The scans
    are the planted positives (1 - z)^(-a) of the scan-ramified benchmark at
    e = 2 and e = 4."""

    @pytest.mark.parametrize(
        "alpha, prime, order, level, deg",
        [("1/2", "3", "20", "3", "7"), ("1/3", "5", "12", "4", "5")],
        ids=["e2", "e4"],
    )
    def test_accepted_candidate_is_verified_once_never_expanded(
        self, monkeypatch, alpha, prime, order, level, deg
    ):
        live = [None]  # [verifications, series inversions] of the running search
        accepted = []
        real_search = dependence.reconstruct_rational
        real_outcome = rational.congruence_outcome
        real_invert = TruncSeries.invert_unit

        def invert_unit(self):
            if live[0] is not None:
                live[0][1] += 1
            return real_invert(self)

        def congruence_outcome(*args):
            live[0][0] += 1
            return real_outcome(*args)

        def search(*args, **kwargs):
            live[0] = [0, 0]
            try:
                out = real_search(*args, **kwargs)
                accepted.append(live[0])
                return out
            finally:
                live[0] = None

        monkeypatch.setattr(TruncSeries, "invert_unit", invert_unit)
        monkeypatch.setattr(rational, "congruence_outcome", congruence_outcome)
        monkeypatch.setattr(dependence, "reconstruct_rational", search)
        args = [
            "scan", "--series", f"hyp:{alpha}", "--prime", prime, "--dwork", "--order", order,
            "--exp-bound", "4", "--level", level, "--deg-bound", deg,
        ]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["stats"]["findings"] == 1
        assert accepted and all(counts == [1, 0] for counts in accepted)

    def test_pole_pairs_never_reach_the_screen(self, monkeypatch):
        # the negative-e2 scan of the scan-ramified benchmark: Pade pairs
        # whose t has a root in the open unit disc can only fail or give
        # NotInK0, so the search sets them aside instead of checking them
        screened, poles = [0], []
        real_check = rational.raw_congruence_check

        def check(num, den, *rest):
            screened[0] += 1
            if not rational.no_roots_in_open_unit_disc(den):
                poles.append(den)
            return real_check(num, den, *rest)

        monkeypatch.setattr(rational, "raw_congruence_check", check)
        args = [
            "scan", "--series", "apery", "--series", "bessel", "--prime", "3", "--dwork",
            "--order", "20", "--exp-bound", "2", "--level", "3", "--deg-bound", "5",
        ]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0
        assert screened[0] > 0
        assert poles == []


class TestLogCombination:
    """Each tuple's screen target sum a_i g_i'/g_i is formed in one integer
    pass over logs aligned once per scan, and equals the term-by-term sum."""

    @pytest.mark.parametrize(
        "ctx", [U5, PadicContext.dwork(3), PadicContext.dwork(5)], ids=lambda c: f"e{c.e}"
    )
    def test_combination_equals_the_term_by_term_sum(self, ctx):
        rng = random.Random(f"combination/{ctx.e}")
        for _ in range(20):
            order, m = rng.randrange(1, 12), rng.randrange(1, 4)
            fs = []
            for _ in range(m):
                rows = [[rng.randrange(-50, 50) for _ in range(order)] for _ in range(ctx.e)]
                for t, row in enumerate(rows):
                    row[0] = 7 * int(t == 0)
                fs.append(TruncSeries.from_rows(ctx, rng.choice([1, 7, 12, 49]), rows))
            logs = [f.log_derivative() for f in fs]
            combine = dependence._combiner(logs)
            for _ in range(5):
                a = [rng.randrange(-4, 5) for _ in range(m)]
                want = TruncSeries.zero(ctx, order - 1)
                for c, log in zip(a, logs):
                    want = want + log * c
                got = combine(a)
                assert (got.den, got.rows) == (want.den, want.rows)

    def test_a_scan_makes_no_scalar_series_product(self, monkeypatch):
        fs = [half_series(U7, 36), apery_series(U7, 36), geometric(U7, 36)]
        reference = kolchin_scan(fs, 2, 2, 6)
        scalar = [0]
        real_mul = TruncSeries.__mul__

        def mul(self, other):
            scalar[0] += isinstance(other, (int, Fraction, type(U7.one())))
            return real_mul(self, other)

        monkeypatch.setattr(TruncSeries, "__mul__", mul)
        assert kolchin_scan(fs, 2, 2, 6) == reference
        assert reference.findings
        assert scalar[0] == 0
