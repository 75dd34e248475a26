"""The finite-difference Schrodinger residual of a kernel, a test-side
judge: one of the two checks that compare the kernel with H itself (the
other is the Crank-Nicolson grid), so it lives beside the tests and reads
the package only through its public functions."""

from quadham.ode import read
from quadham.propagator import green_eval


def schrodinger_residual(tc, kernel_of, x: float, y: float, t: float,
                         fd_step: float = 1e-3) -> float:
    """Finite-difference residual of the evolution equation at (x, y, t).

    ``tc`` holds the coefficients of H and ``kernel_of`` a
    map from time to KernelParameters.  Central differences with step
    ``fd_step`` are used in both t and x; the result is |i G_t + a G_xx
    - b x^2 G + i (c + d) x G_x + i c G| / |G|.
    """
    h = fd_step

    def G(tt, xx):
        return green_eval(kernel_of(tt), xx, y)

    g0 = G(t, x)
    gt = (G(t + h, x) - G(t - h, x)) / (2.0 * h)
    gxp, gxm = G(t, x + h), G(t, x - h)
    gxx = (gxp - 2.0 * g0 + gxm) / (h * h)
    gx = (gxp - gxm) / (2.0 * h)
    a, b, c, d = read((tc.a, tc.b, tc.c, tc.d), t)
    res = (1j * gt + a * gxx - b * x * x * g0
           + 1j * (c + d) * x * gx + 1j * c * g0)
    return abs(res) / abs(g0)
