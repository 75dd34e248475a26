"""Green-function evaluation and state propagation.

Gaussian states ``psi = exp(i(Lambda x^2 + Theta x + Phi))`` are closed
under propagation by a quadratic-exponent kernel; the update is a complex
Gaussian integral in closed form.  Grid states are propagated by trapezoid
quadrature of the superposition integral; on uniform grids that sum is a
chirp-z transform (chirp x Fourier x chirp), evaluated in O(N log N) with
Bluestein's FFT convolution.

The Gaussian and point-kernel layer is plain ``cmath``/``math``, so that
importing this module loads no numpy; the grid functions and
``GaussianState.eval`` import it where they run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .characteristic import KernelParameters, _served
from .errors import (DegenerateWidth, NonNormalizable, NumericalError,
                     UnderResolved, ValidationError)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GaussianState:
    """Wavefunction exp(i(Lambda x^2 + Theta x + Phi))."""

    Lambda: complex
    Theta: complex = 0.0
    Phi: complex = 0.0

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.Lambda, self.Theta, self.Phi))):
            raise ValidationError("Lambda, Theta and Phi must be finite",
                                  Lambda=self.Lambda, Theta=self.Theta,
                                  Phi=self.Phi)
        if not (self.Lambda.imag > 0):
            raise NonNormalizable("Im(Lambda) must be positive",
                                  Lambda=self.Lambda)

    def eval(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        return np.exp(1j * (self.Lambda * x ** 2 + self.Theta * x + self.Phi))

    def norm_sq(self) -> float:
        """Closed-form integral of |psi|^2; NumericalError if it overflows."""
        li, ti = self.Lambda.imag, self.Theta.imag
        try:
            n = math.sqrt(math.pi / (2.0 * li)) * math.exp(
                ti * ti / (2.0 * li) - 2.0 * self.Phi.imag)
        except OverflowError:
            n = math.inf
        if n == math.inf:
            raise NumericalError("the norm of the Gaussian overflows",
                                 Lambda=self.Lambda, Theta=self.Theta,
                                 Phi=self.Phi)
        return n

    def moments(self):
        """Raw (unnormalized) expectations of 1, x, x^2, p, p^2, px+xp;
        NumericalError where one of them is not finite."""
        n = self.norm_sq()
        lr, li, ti = self.Lambda.real, self.Lambda.imag, self.Theta.imag
        x_mean = -ti / (2.0 * li)
        x2_mean = x_mean * x_mean + 1.0 / (4.0 * li)
        # psi' = i (2 Lambda x + Theta) psi: <p> = Re z, z real up to
        # rounding, and <p^2> = |z|^2 + |Lambda|^2 / Im Lambda is not negative
        z = 2.0 * self.Lambda * x_mean + self.Theta
        p2_mean = z.real * z.real + z.imag * z.imag + lr * lr / li + li
        pxxp_mean = 2.0 * (2.0 * lr * x2_mean + self.Theta.real * x_mean)
        out = {"norm": n, "x": x_mean * n, "x2": x2_mean * n,
               "p": z.real * n, "p2": p2_mean * n, "pxxp": pxxp_mean * n}
        if not all(map(math.isfinite, out.values())):
            raise NumericalError("a moment of the Gaussian is not finite",
                                 Lambda=self.Lambda, Theta=self.Theta,
                                 Phi=self.Phi)
        return out


@dataclass(frozen=True)
class GridState:
    """Complex wavefunction samples on a uniform grid x0 + j dx."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=complex))
        if not (0.0 < self.dx < math.inf and math.isfinite(self.x0)):
            raise ValidationError("x0 and dx must be finite, dx positive",
                                  x0=self.x0, dx=self.dx)
        if self.values.ndim != 1 or self.values.size < 8:
            raise ValidationError("grid samples must be a 1-D array of at "
                                  "least 8 points", shape=self.values.shape)
        if not np.isfinite(self.values).all():
            raise ValidationError("grid samples must be finite")

    @property
    def x(self) -> np.ndarray:
        import numpy as np

        return self.x0 + self.dx * np.arange(self.values.size)

    def norm_sq(self) -> float:
        return float(self.dx * (abs(self.values) ** 2).sum())


def green_eval(kp: KernelParameters, x: float, y: float) -> complex:
    """(2 pi i mu)^(-1/2) exp(i(alpha x^2 + beta x y + gamma y^2)) at real
    x and y, principal branch; NumericalError where it is not finite, and
    UnderResolved where one ulp of the phase's summed term magnitudes
    exceeds criterion 1's 1e-7 rad (from about 5.4e8 rad on)."""
    _served(kp.t, kp.mu)
    x, y = float(x), float(y)
    phase = kp.alpha * (x * x) + kp.beta * x * y + kp.gamma * (y * y)
    pref = 1.0 / cmath.sqrt(_TWO_PI * 1j * kp.mu)
    g = pref * cmath.exp(1j * phase)
    if not cmath.isfinite(g):
        raise NumericalError("the Green function is not finite", t=kp.t,
                             x=x, y=y)
    size = (abs(kp.alpha) * (x * x) + abs(kp.beta * x * y)
            + abs(kp.gamma) * (y * y))
    if math.ulp(size) > 1e-7:
        raise UnderResolved("the phase is not resolved to 1e-7 rad", t=kp.t,
                            x=x, y=y, phase_magnitude=size)
    return g


def propagate_gaussian(kp: KernelParameters, s: GaussianState) -> GaussianState:
    """Closed-form propagation of a Gaussian state by the kernel at kp.t,
    on the principal branch of log(2 mu A), A = gamma + Lambda.  Im A > 0,
    so the phase is continuous in t while mu keeps its sign, that is
    before the first caustic.  NumericalError naming t where the result
    overflows or Im Lambda underflows to 0."""
    _served(kp.t, kp.mu)
    # ** raises OverflowError where a square overflows, and a product or a
    # quotient gives inf or nan instead; both end in one NumericalError
    try:
        A = kp.gamma + s.Lambda
        if abs(A) < 1e-12:
            raise DegenerateWidth("gamma + Lambda is (nearly) zero", t=kp.t)
        Lambda_out = kp.alpha - kp.beta ** 2 / (4.0 * A)
        Theta_out = -kp.beta * s.Theta / (2.0 * A)
        # prefactor 1/sqrt(2 pi i mu) folded with the Gaussian integral
        # sqrt(pi / (-i A)) leaves an overall (2 mu A)^(-1/2)
        w = 2.0 * kp.mu * A
        log_w = complex(math.log(abs(w)), cmath.phase(w))
        Phi_out = s.Phi - s.Theta ** 2 / (4.0 * A) + 0.5j * log_w
        finite = all(map(cmath.isfinite, (Lambda_out, Theta_out, Phi_out)))
    except OverflowError:
        finite = False
    if not finite:
        raise NumericalError("the propagated Gaussian overflows", t=kp.t)
    # Im Lambda' = beta^2 Im A / (4 |A|^2) > 0 reads 0 only by underflow
    if not Lambda_out.imag > 0:
        raise NumericalError("the width of the propagated Gaussian "
                             "underflows", t=kp.t, Lambda=Lambda_out)
    return GaussianState(Lambda_out, Theta_out, Phi_out)


def gaussian_sweep(kernel_of, times, s0: GaussianState):
    """The state s0 propagated to each time in ``times``; ``kernel_of``
    maps t to KernelParameters."""
    return [propagate_gaussian(kernel_of(t), s0) for t in times]


def propagate_grid(kp: KernelParameters, phi: GridState) -> GridState:
    """Trapezoid quadrature of psi(x) = int G(x, y) phi(y) dy, returned on
    the grid of ``phi``.

    With x_k = x0 + dx k on both sides the cross term splits as
    beta x_k x_j = beta (x0^2 + x0 dx j + dx x0 k) + c k j with
    c = beta dx^2, and k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum over
    j into one linear convolution with the chirp exp(-i c m^2 / 2).
    """
    _served(kp.t, kp.mu)
    x0, dx, n = phi.x0, phi.dx, phi.values.size
    import numpy as np
    from numpy.fft import fft, ifft

    peak = float(np.max(np.abs(phi.values)))
    if peak == 0.0:
        return GridState(x0, dx, np.zeros(n, dtype=complex))
    edge = max(abs(phi.values[0]), abs(phi.values[-1]))
    if edge > 1e-10 * peak:
        raise UnderResolved("source state does not decay at the grid ends",
                            edge_fraction=float(edge / peak))

    k = np.arange(n)
    x = x0 + dx * k
    # quadrature resolution guard: phase advance per source step
    max_phase = abs(kp.beta) * dx * float(np.max(np.abs(x)))
    if max_phase > 0.25 * math.pi:
        raise UnderResolved("kernel phase advances too fast per source step",
                            phase_per_step=max_phase)

    weights = np.full(n, dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    pref = 1.0 / cmath.sqrt(_TWO_PI * 1j * kp.mu)
    c = kp.beta * dx * dx
    u = weights * phi.values * np.exp(
        1j * (kp.gamma * x ** 2 + kp.beta * x0 * dx * k + 0.5 * c * k * k))
    # chirp at lags -(n - 1) .. n - 1, the negative lags wrapped to the end,
    # so that the circular convolution of length size >= 2 n - 1 (the next
    # power of two) equals the linear one
    size = 1 << (2 * n - 2).bit_length()
    lag = np.zeros(size)
    lag[:n] = k
    lag[size - n + 1:] = np.arange(1 - n, 0)
    chirp = np.exp(-0.5j * c * lag * lag)
    conv = ifft(fft(u, size) * fft(chirp))[:n]
    values = pref * conv * np.exp(
        1j * (kp.alpha * x ** 2 + kp.beta * (x0 * x0 + dx * x0 * k)
              + 0.5 * c * k * k))
    return GridState(x0, dx, values)

