"""Frobenius antecedents, passage matrices, and rational congruence
certificates.

The central construction: given a MOM operator L with companion A, one step
produces an operator L1 whose unit solution is the Cartier transform of L's,
together with a passage matrix H with H(0) = diag(1, p, .., p^(n-1)) and

    delta(H) = A H - p H A1(z^p).

Iterating the step on L1, L2, .. and composing passages gives the level-m
data; level k descends from L_(k-1)'s companion and the Cartier transform
that level k - 1 verified. Every identity is re-verified on the truncations
before anything is returned; a failure means the input operator lies
outside the class the construction is valid for, and is reported with the
first offending order. The passage identity is checked as lead times its
residual, in one integer pass, with lead, the delta^n coefficient, and
lead A both read off L's polynomial form (DiffOp.polynomial_form), so that
a check forms one product with lead; lead(0) != 0, so both vanish to the
same order. Each step checks once that its operator annihilates the
Cartier transform it descends to; the composite check of level k does not
repeat it.

Certificates are rational functions congruent, modulo a power of pi, to
structured ratios of a series and its Cartier/Frobenius transforms. They are
searched for by Pade reconstruction and always re-verified against the
defining congruence, coefficient by coefficient.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add, mul, sub

from .diffops import DiffOp, SeriesMatrix, uniform_part
from .errors import (
    BadParameters,
    NotInK0,
    NotMOM,
    OrderExhausted,
    ReconstructionFailed,
    VerificationFailed,
)
from .rational import (
    RationalFunction,
    VERIFY_NOT_K0,
    VERIFY_OK,
    congruence_outcome,
    product_congruence_outcome,
    reconstruct_rational,
)
from .rings import INF, _capped_power, record
from .series import TruncSeries, _diag, _matmul_ints


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@record
class AntecedentLevel:
    """One level of the antecedent chain, with its verification data."""

    level: int
    operator: DiffOp
    companion: SeriesMatrix
    passage: SeriesMatrix
    residual: SeriesMatrix
    checked_order: int
    passage_min_valuation: object

    def to_json_dict(self) -> dict:
        rv = self.residual.min_valuation()
        return {
            "level": self.level,
            "operator_order": self.operator.order,
            "checked_order": self.checked_order,
            "passage_min_valuation": _json_val(self.passage_min_valuation),
            "residual_min_valuation": _json_val(rv),
        }


def _json_val(v):
    return None if v == INF else v


def _require_descendable(L: DiffOp, order: int):
    if not L.is_mom:
        raise NotMOM("antecedent step needs vanishing coefficients at 0")
    if L.series_order < order:
        raise OrderExhausted(
            f"operator coefficients reliable to {L.series_order} < {order}"
        )


def antecedent_step(L: DiffOp, order: int, A=None, transformed=None) -> AntecedentLevel:
    """One Cartier descent step.

    Computes the uniform part Y of the companion system, reads the descended
    operator off the last row of F = (delta(C) + (1/p) C A(0)) C^(-1) with
    C the Cartier transform of Y, and builds the passage matrix
    H = Y (C(z^p))^(-1) diag(1, p, .., p^(n-1)). The defining identity, the
    value at 0, entry integrality, and annihilation of the transformed
    solution are all checked on the truncations.

    A and transformed, when given, are L's companion truncated to order and
    the Cartier transform of L's unit solution to order, already built by
    the caller.
    """
    _require_descendable(L, order)
    ctx = L.ctx
    p = ctx.prime
    n = L.order
    if A is None:
        A = L.companion().truncate(order)
    if transformed is None:
        transformed = L.unit_solution(order).cartier()
    Y = uniform_part(A, order)
    C = Y.cartier()
    d0, a0 = A.constant_ints()
    C_inv = C.invert_series()
    # monic coefficient of delta^(n-k) is -(1/p^(k-1)) * F[n, n-k+1]: only
    # the last row of F is formed, from row n - 1 of C, negated, as
    # -(p d0 delta(C) + C a0) C^(-1) over C.den p d0 C_inv.den
    e, pd0 = ctx.e, p * d0
    c_last = C.rows[(n - 1) * n * e :]
    ca0 = _matmul_ints(c_last, [[-v] for v in a0], ctx, C.order)
    # range(0, -pd0 len, -pd0) multiplies coefficient j by -j p d0
    g = [list(map(add, map(mul, r, range(0, -pd0 * len(r), -pd0)), s)) for r, s in zip(c_last, ca0)]
    f_last = _matmul_ints(g, C_inv.rows, ctx, C.order)
    den = C.den * pd0 * C_inv.den
    L1 = DiffOp(
        tuple(
            TruncSeries._of(ctx, den * p ** (k - 1), f_last[(n - k) * e : (n - k + 1) * e])
            for k in range(1, n + 1)
        ),
        ctx,
    )
    A1 = L1.companion()
    # H = Y C^(-1)(z^p) diag(1, p, .., p^(n-1)): column j of H is scaled by p^j
    rows = _matmul_ints(Y.rows, C_inv.subst_zpk_truncated(1, order).rows, ctx, order)
    scaled = [[x * p ** (at // e % n) for x in row] for at, row in enumerate(rows)]
    passage = SeriesMatrix._of(ctx, Y.den * C_inv.den, scaled)
    out = _verified_level(1, L, L1, A1, passage)
    bad = L1.apply(transformed.truncate(L1.series_order)).first_nonzero()
    if bad is not None:
        raise VerificationFailed(
            "level-1 operator does not annihilate the transformed solution", order=bad
        )
    return out


def _verified_level(level, L, Lk, Ak, passage) -> AntecedentLevel:
    """Check the level-k passage H from L to Lk (companion Ak): the passage
    identity, H(0) and the integrality of H; raise VerificationFailed on the
    first miss.

    The identity R = delta(H) - A H + p^k H B = 0 mod z^N, A the companion
    of L and B = A_k(z^(p^k)) over db, is tested as lead R = 0 in one
    integer pass, with lead = P_n and lead A read off L.polynomial_form(N):
    lead A has lead on the superdiagonal and -P_0, .., -P_(n-1) in its last
    row. On H's rows (its denominator cancels) lead R is
    lead S - db (lead A) H, S = db delta(H) + p^k H B. In rows 0 .. n-2
    that is lead (S_i - db H_(i+1)), tested without the factor lead; the
    last row, lead S_(n-1) + db sum_j P_j H_j, is the one product with
    lead. lead(0) != 0, so lead R and R have the same first nonzero order,
    the one reported. S is formed one matrix row at a time.
    """
    ctx = L.ctx
    e, p = ctx.e, ctx.prime
    n = L.order
    pk = p**level
    N = min(passage.order, Ak.order * pk)
    H = passage.rows
    B = Ak.subst_zpk_truncated(level, N)
    db, width = B.den, n * e
    P = L.polynomial_form(N)
    bad = N
    for at in range(0, len(H), width):
        block = H[at : at + width]
        S = [list(map(add, map(mul, h, range(0, db * N, db)), map(pk.__mul__, hb)))
             for h, hb in zip(block, _matmul_ints(block, B.rows, ctx, N))]
        if at + width < len(H):
            below = H[at + width : at + 2 * width]
            resid = (map(sub, s, map(db.__mul__, h)) for s, h in zip(S, below))
        else:
            PH = _matmul_ints(list(chain.from_iterable(P[:n])), H, ctx, N)
            resid = (map(add, s, map(db.__mul__, ph))
                     for s, ph in zip(_matmul_ints(S, P[n], ctx, N), PH))
        for r in resid:
            bad = next(compress(range(bad), r), bad)
    if bad < N:
        raise VerificationFailed(
            f"passage identity fails at level {level}", order=bad
        )
    if passage.constant_ints() != (1, _diag([p ** (level * i) for i in range(n)], ctx.e)):
        raise VerificationFailed(
            f"passage matrix at level {level} has the wrong value at 0", order=0
        )
    min_val = passage.min_valuation()
    if min_val < 0:
        raise VerificationFailed(
            f"passage matrix at level {level} has a negative-valuation entry"
        )
    residual = SeriesMatrix.zero(ctx, n, N)
    return AntecedentLevel(level, Lk, Ak, passage, residual, N, min_val)


def antecedent_chain(L: DiffOp, levels: int, order: int) -> list:
    """Iterate the descent, composing passages: H_(k) = H_(k-1) G(z^(p^(k-1)))
    where G is the single-step passage of the level k-1 operator.

    Returns one AntecedentLevel per level, so levels = 0 gives [] without
    checking the operator or the order; negative levels are BadParameters.
    """
    if levels < 0:
        raise BadParameters(f"levels must be >= 0, got {levels}")
    if levels == 0:
        return []
    ctx = L.ctx
    p = ctx.prime
    if _ceil_div(order, _capped_power(p, levels, order)) < 2:
        raise OrderExhausted(
            f"order {order} cannot support {levels} levels at p = {p}"
        )
    _require_descendable(L, order)
    A = L.companion().truncate(order)
    transformed = L.unit_solution(order).cartier()
    out = [antecedent_step(L, order, A, transformed)]
    for k in range(2, levels + 1):
        prev = out[-1]
        # level k - 1 verified that its operator annihilates transformed, so
        # (a MOM unit solution being unique) that is its unit solution
        upto = prev.operator.series_order
        transformed = transformed.truncate(upto).cartier()
        step = antecedent_step(prev.operator, upto, prev.companion, transformed)
        passage = prev.passage.matmul(step.passage.subst_zpk_truncated(k - 1, order))
        # the step checked that step.operator annihilates transformed
        out.append(_verified_level(k, L, step.operator, step.companion, passage))
    return out


# -- integrality -------------------------------------------------------------


@record
class IntegralityReport:
    level: int
    checked_upto: int
    min_valuation: object
    first_failure: object

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "checked_upto": self.checked_upto,
            "min_valuation": _json_val(self.min_valuation),
            "first_failure": self.first_failure,
            "passed": self.passed,
        }


def integrality_check(f: TruncSeries, level: int) -> IntegralityReport:
    """Valuations of f_1 .. f_(p^level - 1), capped by the reliable order.

    Passes when every checked coefficient has valuation >= 0; the first
    failing index is reported, never raised: a failure is a finding.
    """
    if level < 1:
        raise BadParameters(f"level must be >= 1, got {level}")
    _require_unit_start(f)
    upto = min(_capped_power(f.ctx.prime, level, f.order) - 1, f.order - 1)
    first_failure = f.first_nonintegral(upto + 1)
    checked = upto if first_failure is None else first_failure
    return IntegralityReport(level, checked, f.min_valuation(checked + 1, 1), first_failure)


def _require_period(h: int):
    if h < 1:
        raise BadParameters(f"period must be >= 1, got {h}")


def _require_unit_start(f: TruncSeries):
    if f.order == 0 or f.truncate(1) != TruncSeries.one(f.ctx, 1):
        raise ValueError("series must have constant term 1")


# -- certificates ------------------------------------------------------------


@record
class Certificate:
    """A verified rational congruence, with its diagnostics.

    min_residual_valuation is the smallest valuation of the defining
    congruence's residual over the checked window; INF means the certificate
    is exact at this truncation.
    """

    kind: str
    level: int
    rational: RationalFunction
    verified_order: int
    min_residual_valuation: object

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "rational": self.rational.render(),
            "verified_order": self.verified_order,
            "min_residual_valuation": _json_val(self.min_residual_valuation),
        }


def ratio_certificate(f: TruncSeries, m: int, deg_bound: int) -> Certificate:
    """D with D(z) (Cartier f)(z^p) congruent to f mod pi^m."""
    _require_unit_start(f)
    u = f.cartier().subst_zpk_truncated(1, f.order)
    cand, resid = reconstruct_rational(
        f, m, deg_bound, "ratio certificate", u, require_norm_one=True
    )
    return Certificate("ratio", m, cand, f.order, resid)


def period_ratio_certificate(f: TruncSeries, h: int, k: int, deg_bound: int) -> Certificate:
    """Q with Q congruent to (Cartier^(kh) f) / f mod pi^(kh)."""
    _require_period(h)
    _require_unit_start(f)
    kh = k * h
    lam = f
    # below order 2 the Cartier transform keeps the order
    for _ in range(kh):
        if lam.order < 2:
            break
        lam = lam.cartier()
    if lam.order < 2:
        raise OrderExhausted(
            f"{kh}-fold Cartier transform leaves order {lam.order} < 2"
        )
    g = lam * f.truncate(lam.order).invert_unit()
    cand, resid = reconstruct_rational(
        g, kh, deg_bound, "period certificate", require_norm_one=True
    )
    return Certificate("period-ratio", kh, cand, g.order, resid)


def frobenius_ratio_certificate(f: TruncSeries, h: int, k: int, deg_bound: int) -> Certificate:
    """B with f congruent to B(z) f(z^(p^(kh))) mod pi^(kh)."""
    _require_unit_start(f)
    kh = k * h
    if k == 0:
        return Certificate(
            "frobenius-ratio", 0, RationalFunction.constant(f.ctx, 1), f.order, INF
        )
    u = f.subst_zpk_truncated(kh, f.order)
    cand, resid = reconstruct_rational(
        f, kh, deg_bound, "frobenius ratio certificate", u, require_norm_one=True
    )
    return Certificate("frobenius-ratio", kh, cand, f.order, resid)


def successive_frobenius_quotient(f: TruncSeries, h: int, k: int, deg_bound: int) -> Certificate:
    """The quotient B_((k+1)h) / B_(kh)(z^(p^h)), verified against
    f / f(z^(p^h)) mod pi^(kh). Derived from two ratio certificates rather
    than searched, then re-checked like everything else.
    """
    kh = k * h
    b_next = frobenius_ratio_certificate(f, h, k + 1, deg_bound).rational
    b_cur = frobenius_ratio_certificate(f, h, k, deg_bound).rational
    quot = b_next.divide(b_cur.subst_zpk(h))
    u = f.subst_zpk_truncated(h, f.order)
    upto = f.order
    outcome = product_congruence_outcome(quot, u, f, kh, upto, require_norm_one=True)
    return _derived("frobenius-quotient", kh, quot, upto, outcome, "successive quotient",
                    "successive quotient fails its congruence")


def logderiv_certificate(f: TruncSeries, h: int, level: int, deg_bound: int) -> Certificate:
    """R congruent to f'/f mod pi^level, denominator pole-free on the open
    unit disc. No Gauss-norm requirement: f'/f need not have norm 1.

    Falls back to differentiating a Frobenius ratio certificate when direct
    reconstruction finds nothing at this degree bound.
    """
    _require_period(h)
    _require_unit_start(f)
    g = f.log_derivative()
    try:
        cand, resid = reconstruct_rational(g, level, deg_bound, "log-derivative certificate")
    except ReconstructionFailed:
        return logderiv_from_frobenius(f, h, level, deg_bound)
    return Certificate("logderiv", level, cand, g.order, resid)


def logderiv_from_frobenius(f: TruncSeries, h: int, level: int, deg_bound: int) -> Certificate:
    """Alternate route: R = B'/B for a Frobenius ratio certificate B at a
    level covering pi^level, re-verified against f'/f directly."""
    _require_period(h)
    k = _ceil_div(level, h)
    b = frobenius_ratio_certificate(f, h, k, deg_bound).rational
    cand = b.derivative().divide(b)
    g = f.log_derivative()
    upto = g.order
    outcome = congruence_outcome(cand, g, level, upto, require_norm_one=False)
    return _derived("logderiv", level, cand, upto, outcome, "log-derivative",
                    "differentiated certificate misses the congruence")


def _derived(kind, level, cand, upto, outcome, what, miss_message) -> Certificate:
    """The Certificate of a candidate derived from other certificates, from
    the (outcome, residual) of its verification."""
    verdict, resid = outcome
    if verdict == VERIFY_NOT_K0:
        raise NotInK0(f"{what} denominator has a root in the open unit disc")
    if verdict != VERIFY_OK:
        raise VerificationFailed(miss_message)
    return Certificate(kind, level, cand, upto, resid)
