"""Chebyshev series in the first- (T) and second-kind (U) bases.

Coefficients may be complex.  Evaluation uses the Clenshaw recurrence for
both bases; conversion between the bases uses the exact coupling relations
T_n = (U_n - U_{n-2})/2 and U_n = 2(T_n + T_{n-2} + ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteSample

FIRST_KIND = "T"
SECOND_KIND = "U"


@dataclass(frozen=True)
class ChebyshevSeries:
    """Finite Chebyshev series c_0..c_N in the T or U basis."""

    coeffs: np.ndarray
    basis: str = FIRST_KIND

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=complex)))
        if self.basis not in (FIRST_KIND, SECOND_KIND):
            raise ValueError(f"unknown basis {self.basis!r}")
        if not np.all(np.isfinite(self.coeffs)):
            raise NonFiniteSample("non-finite series coefficient")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @cached_property
    def real_valued(self):
        # computed once: coeffs is never mutated after construction
        return bool(np.all(np.abs(self.coeffs.imag) == 0.0))

    @cached_property
    def coeff_list(self):
        """The coefficients as Python numbers; floats for a real series, so it runs in floats."""
        if self.real_valued:
            return self.coeffs.real.tolist()
        return self.coeffs.tolist()

    def __call__(self, x):
        """Clenshaw's recurrence on Python numbers: plain arithmetic for a float x."""
        coeffs = self.coeff_list
        b1 = b2 = 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = c + 2.0 * x * b1 - b2, b1
        if self.basis == FIRST_KIND:
            return coeffs[0] + x * b1 - b2
        # U_0 = 1, U_1 = 2x
        return coeffs[0] + 2.0 * x * b1 - b2

    def chopped(self):
        """The series cut where its coefficients reach a plateau at rounding level.

        Aurentz & Trefethen, "Chopping a Chebyshev series" (ACM TOMS 2017),
        standardChop at tol = machine epsilon: the envelope of |c_k| (the
        largest coefficient from k on, relative to the first) is scanned for
        the first j followed by a plateau; the cut then falls where the
        envelope plus a slope biased to the left is least.  A series of
        fewer than 17 coefficients, or one without a plateau, is returned
        unchanged; an all-zero series keeps c_0 alone.
        """
        n = len(self.coeffs)
        if n < 17:
            return self
        tol = np.finfo(float).eps
        envelope = np.maximum.accumulate(np.abs(self.coeffs)[::-1])[::-1]
        if envelope[0] == 0.0:
            return ChebyshevSeries(self.coeffs[:1], self.basis)
        envelope = envelope / envelope[0]
        # Indices are 0-based: the paper's j and j2 are j + 1 and j2 + 1, and
        # its round() takes halves up.  A plateau always follows a nonzero
        # envelope value, so the paper's branch for a zero one is left out.
        for j in range(1, n):
            j2 = math.floor(1.25 * (j + 1) + 5.5) - 1
            if j2 >= n:
                return self
            e1, e2 = envelope[j], envelope[j2]
            if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
                break
        tiny = tol ** (7.0 / 6.0)
        j3 = int(np.sum(envelope >= tiny))
        if j3 <= j2:
            j2 = j3
            envelope[j2] = tiny
        biased = np.log10(envelope[: j2 + 1]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2 + 1)
        cutoff = max(int(np.argmin(biased)), 1)
        return ChebyshevSeries(self.coeffs[:cutoff], self.basis)

    def trimmed(self):
        """The series without its trailing zero coefficients (c_0 always stays)."""
        keep = len(self.coeffs)
        while keep > 1 and self.coeffs[keep - 1] == 0.0:
            keep -= 1
        return ChebyshevSeries(self.coeffs[:keep], self.basis)

    def to_basis(self, basis):
        if basis == self.basis:
            return self
        if basis == SECOND_KIND:
            return ChebyshevSeries(t_to_u(self.coeffs), SECOND_KIND)
        return ChebyshevSeries(u_to_t(self.coeffs), FIRST_KIND)

    def __mul__(self, scalar):
        return ChebyshevSeries(self.coeffs * scalar, self.basis)

    __rmul__ = __mul__


def t_to_u(tc):
    """T-basis coefficients -> U-basis coefficients (exact linear map)."""
    tc = np.asarray(tc, dtype=complex)
    out = np.zeros(len(tc), dtype=complex)
    out[0] += tc[0]
    if len(tc) > 1:
        out[1] += 0.5 * tc[1]
    for n in range(2, len(tc)):
        out[n] += 0.5 * tc[n]
        out[n - 2] -= 0.5 * tc[n]
    return out


def u_to_t(uc):
    """U-basis coefficients -> T-basis coefficients (exact linear map)."""
    uc = np.asarray(uc, dtype=complex)
    # U_n = 2 T_n + 2 T_{n-2} + ... (+ T_0 once when n is even), so the T_k
    # coefficient is a reverse cumulative sum over the n of k's parity
    out = np.empty_like(uc)
    for parity in (0, 1):
        out[parity::2] = 2.0 * np.cumsum(uc[parity::2][::-1])[::-1]
    out[:1] *= 0.5
    return out


def chebyshev_gauss_nodes(degree):
    """First-kind Chebyshev-Gauss nodes cos((2k+1)pi/(2N+2)), k = 0..N."""
    k = np.arange(degree + 1)
    return np.cos((2.0 * k + 1.0) * np.pi / (2.0 * degree + 2.0))


def interpolate_chebyshev(f, degree):
    """Interpolate f on the degree-N Chebyshev-Gauss grid; exact for poly deg <= N.

    Returns the T-basis series of the interpolant.
    """
    from scipy.fft import dct

    if degree < 0:
        raise ValueError("degree must be >= 0")
    nodes = chebyshev_gauss_nodes(degree)
    vals = np.asarray(f(nodes), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSample("f is non-finite at a Chebyshev-Gauss node")
    # c_m = (2/n) sum_k f(x_k) cos(m theta_k), with the m=0 term halved: a DCT-II
    coeffs = dct(vals, type=2) / (degree + 1)
    coeffs[0] *= 0.5
    return ChebyshevSeries(coeffs, FIRST_KIND)
