"""Every record of ``quadham.models`` against its own equations at 40
digits, on the record's own source run by ``oracle40``, over drawn
parameters across each model's domain.

The kernel defines the classical flow: M12 = -1/beta, M22 = 2 alpha M12,
M11 = 2 gamma M12, M21 from det M = 1, and h = e^I.  Each equation is
judged relative to the size of its terms, or of generator times solution
for a linear system, to 1e-30; derivatives are ``ctx.diff`` of the
printed formulas.
"""

import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

import oracle40
from helpers import case_seed
from oracle40 import ctx
from quadham import coefficients as coeff
from quadham.errors import InvalidModelParams

TOL = ctx.mpf(10) ** -30


def _flow(rec, t):
    """(M11, M12, M21, M22, h) of the flow that the kernel defines."""
    alpha, beta, gamma, h = rec.kernel(t)
    m12 = -1 / beta
    m11, m22 = 2 * gamma * m12, 2 * alpha * m12
    return m11, m12, (m11 * m22 - 1) / m12, m22, h


def _start(rec, equation):
    """M(eps) = 1 + eps A(0) and h(eps) = 1 + eps (c - d)(0) to first
    order, at eps = 1e-40 and 120 digits: the flow starts at the identity."""
    with ctx.workdps(120):
        eps, zero = ctx.mpf(10) ** -40, ctx.mpf(0)
        a, b, c, d = (f(zero) for f in rec.hamiltonian)
        m11, m12, m21, m22, h = _flow(rec, eps)
        scale = eps * (abs(a) + abs(b) + abs(c) + abs(d))
        for name, value, want in (
                ("M11(0)", m11, 1 + eps * (c + d)),
                ("M12(0)", m12, 2 * eps * a),
                ("M21(0)", m21, -2 * eps * b),
                ("M22(0)", m22, 1 - eps * (c + d)),
                ("h(0)", h, 1 + eps * (c - d))):
            equation(name, value, -want, scale=scale)


def _equations(rec, t, moments, family):
    """Judge every closed form of the record at t: mu, the kernel's flow,
    the invariant, the expectation curve from the raw ``moments`` (p2, x2,
    pxxp) at 0, the mean of the ``family`` (amplitude, phase) and the
    elementary mu of the auxiliary equation.  Returns the failures."""
    rows = []

    def equation(name, *terms, scale=None):
        """The equation sum(terms) = 0, judged against ``scale``, by
        default the sum of the terms' magnitudes."""
        size = sum(map(abs, terms)) if scale is None else scale
        rows.append((name, abs(sum(terms)), size))

    zero = ctx.mpf(0)
    a_f, _, c_f, d_f = rec.hamiltonian
    a, b, c, d = (f(t) for f in rec.hamiltonian)
    da, dc, dd = (ctx.diff(f, t) for f in (a_f, c_f, d_f))
    size = abs(a) + abs(b) + abs(c) + abs(d)

    def derivative(name, f, k, values):
        """values[k + 1] = d values[k] / dt of the form f, judged against
        the size of H times values[k] too: a slow value is differenced to
        the digits of the value."""
        want = ctx.diff(lambda s: f(s)[k], t)
        equation(name, values[k + 1], -want, scale=abs(values[k + 1])
                 + abs(want) + size * abs(values[k]))

    mu, mup = rec.mu(t)
    derivative("mu' = dmu/dt", rec.mu, 0, (mu, mup))
    # the characteristic equation times a:
    # mu'' - (a'/a + 2c - 2d) mu' + 4 (ab - cd + c a'/2a - c'/2) mu = 0
    mupp = ctx.diff(lambda s: rec.mu(s)[1], t)
    equation("characteristic", a * mupp, -da * mup, -2 * (c - d) * a * mup,
             4 * a * a * b * mu, -4 * a * c * d * mu, 2 * c * da * mu,
             -2 * a * dc * mu)
    mu0, mup0 = rec.mu(zero)
    equation("mu(0) = 0", mu0, scale=abs(mup0))
    equation("mu'(0) = 2a(0)", mup0, -2 * a_f(zero))

    if rec.kernel is not None:
        _start(rec, equation)
        m11, m12, m21, m22, h = _flow(rec, t)
        equation("mu = M12 h", mu, -m12 * h)
        equation("mu' = 2 (a M22 + c M12) h", mup, -2 * a * m22 * h,
                 -2 * c * m12 * h)
        dm11, dm12, dm21, dm22, dh = (
            ctx.diff(lambda s, k=k: _flow(rec, s)[k], t) for k in range(5))
        col1, col2 = size * (abs(m11) + abs(m21)), size * (abs(m12) + abs(m22))
        equation("M11'", dm11, -(c + d) * m11, -2 * a * m21, scale=col1)
        equation("M12'", dm12, -(c + d) * m12, -2 * a * m22, scale=col2)
        equation("M21'", dm21, 2 * b * m11, (c + d) * m21, scale=col1)
        equation("M22'", dm22, 2 * b * m12, (c + d) * m22, scale=col2)
        equation("h' = (c - d) h", dh, -(c - d) * h, scale=size * abs(h))

    inv_h = rec.invariant_hamiltonian
    ai, bi, ci, di = (f(t) for f in inv_h)
    A, B, C = rec.invariant(t)
    dA, dB, dC = (ctx.diff(lambda s, k=k: rec.invariant(s)[k], t)
                  for k in range(3))
    # the paper's conservation system of A p^2 + B x^2 + C (px + xp)
    scale = (abs(ai) + abs(bi) + abs(ci) + abs(di)) * (
        abs(A) + abs(B) + abs(C))
    equation("A'", dA, 4 * ai * C, -(3 * ci + di) * A, scale=scale)
    equation("B'", dB, -4 * bi * C, (ci + 3 * di) * B, scale=scale)
    equation("C'", dC, 2 * ai * B, -2 * bi * A, -(ci - di) * C, scale=scale)

    if rec.expectation is not None:
        # the invariant's H is H with a times k and b over k, whose flow
        # is [[M11, k M12], [M21 / k, M22]]
        k = ai / a
        equation("a_inv(t) a(0) = a(t) a_inv(0)", ai * a_f(zero),
                 -a * inv_h[0](zero))
        equation("b_inv k = b", bi * k, -b)
        equation("c_inv = c, d_inv = d", abs(ci - c) + abs(di - d),
                 scale=size)
        n11, n12, n21, n22 = m11, k * m12, m21 / k, m22
        p2, x2, pxxp = moments
        try:
            want = rec.expectation(p2, x2, pxxp, t)
        except oracle40.InvalidMoments:
            # cj_coordinate's curve is the even branch, <px+xp>_0 = 0
            pxxp = 0
            want = rec.expectation(p2, x2, pxxp, t)
        # the raw moments at t: M S0 M^T / h, S0 = [[x2, pxxp/2], [., p2]]
        half = pxxp / 2
        x2_t = (n11 * n11 * x2 + 2 * n11 * n12 * half + n12 * n12 * p2) / h
        cross_t = (n11 * n21 * x2 + (n11 * n22 + n12 * n21) * half
                   + n12 * n22 * p2) / h
        p2_t = (n21 * n21 * x2 + 2 * n21 * n22 * half + n22 * n22 * p2) / h
        RA, RB, RC = rec.reference(t)
        equation("expectation", RA * p2_t, RB * x2_t, RC * cross_t, -want)

    if rec.mean_position is not None:
        x0, p0 = rec.mean_start(*family)
        equation("mean_position", m11 * x0 / h, m12 * p0 / h,
                 -rec.mean_position(*family, t))

    if rec.invariant_mu is not None:
        nu, nup, nupp = values = rec.invariant_mu(t)
        derivative("invariant_mu'", rec.invariant_mu, 0, values)
        derivative("invariant_mu''", rec.invariant_mu, 1, values)
        # the nonlinear auxiliary equation of Pinney's mu, times a
        c0 = rec.invariant_c0
        equation("auxiliary", a * nupp, -da * nup, 4 * a * a * b * nu,
                 da * (c + d) * nu, -a * (c + d) ** 2 * nu,
                 -a * (dc + dd) * nu, -4 * c0 * a ** 3 / nu ** 3)
        # Pinney's superposition: mu^2 = s11 of M S0 M^T, S0 = T [[A, B],
        # [B, C]] T^T, T = [[1, 0], [-(c + d) k, k]] at 0, k = 1 / 2a(0)
        A, B, C = rec.invariant_data
        k = 1 / (2 * a_f(zero))
        g = -(c_f(zero) + d_f(zero)) * k
        s0 = (A, g * A + k * B, g * g * A + 2 * g * k * B + k * k * C)
        equation("invariant_data", nu * nu, -m11 * m11 * s0[0],
                 -2 * m11 * m12 * s0[1], -m12 * m12 * s0[2])
    return [(name, ctx.nstr(res / size, 3)) for name, res, size in rows
            if not res <= TOL * size]


def _magnitude(low, high):
    return st.floats(low, high).map(lambda u: 10.0 ** u)


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_every_record_solves_its_equations_at_40_digits(request, model_id):
    # parameters across the domain each record accepts, either sign, with
    # |lambda| and |mu_param| up to 1.2 |omega0|, t on [1e-3, 10] inside
    # the record's window, and raw moments and a mean family at 0
    @seed(case_seed(request))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(omega0=_magnitude(-1.0, 2.0), ratios=st.tuples(
               st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
           delta=_magnitude(-1.0, 0.5), signs=st.tuples(
               st.booleans(), st.booleans()),
           t=_magnitude(-3.0, 1.0), moments=st.tuples(
               st.floats(0.1, 2.0), st.floats(0.1, 2.0),
               st.floats(-1.0, 1.0)),
           family=st.tuples(st.floats(0.1, 2.0), st.floats(-3.0, 3.0)))
    def case(omega0, ratios, delta, signs, t, moments, family):
        omega0 = -omega0 if signs[0] else omega0
        delta = -delta if signs[1] else delta
        try:
            spec = coeff.ModelSpec(model_id, omega0, ratios[0] * abs(omega0),
                                   ratios[1] * abs(omega0), delta)
        except InvalidModelParams:
            reject()
        singular = spec.model.t_singular
        if t >= spec.model.t_max or 0.0 < singular <= t:
            reject()
        rec = oracle40.record(spec)
        exact = lambda values: tuple(map(ctx.mpf, values))
        assert _equations(rec, ctx.mpf(t), exact(moments),
                          exact(family)) == [], spec

    case()

