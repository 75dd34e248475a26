"""The residual of the nonlinear auxiliary equation, a test-side judge of
the mu that ``general_invariant`` and ``ladder_factorization`` accept.  It
is written from the paper's equation and reads the coefficients of H and
their derivatives itself, so that it shares no code with the package's
check, as ``schrodinger.py`` shares none with the kernel."""

from quadham.ode import read


def auxiliary_residual(tc, mu_fn, C0: float, t: float) -> float:
    """|mu'' - (a'/a) mu' + [4ab + (a'/a - c - d)(c + d) - c' - d'] mu
    - C0 (2a)^2 / mu^3| at t, with (mu, mu', mu'') = mu_fn(t) and (a, b,
    c, d) and (a', c', d') those of ``tc``.  At C0 = 0 the right side is
    0, so a linear solution may vanish."""
    mu, dmu, d2mu = mu_fn(t)
    a, b, c, d, da, dc, dd = read(
        (tc.a, tc.b, tc.c, tc.d, tc.da, tc.dc, tc.dd), t)
    drift = da / a
    q = 4.0 * a * b + (drift - c - d) * (c + d) - dc - dd
    rhs = C0 * (2.0 * a) ** 2 / mu ** 3 if C0 != 0.0 else 0.0
    return abs(d2mu - drift * dmu + q * mu - rhs)
