"""Complex special functions: Gamma, the functional-equation factor chi,
the phase function theta, and an Euler-Maclaurin zeta evaluator.

Everything here is pure and reentrant and values are binary64.  log Gamma,
theta and zeta each have one vectorised implementation that their scalar
entry points wrap; gamma_complex and chi remain scalar (cmath) functions.
log Gamma is the Stirling series after upward recurrence to |z| >= 24;
Gamma is its exponential, with reflection for Re s < 1/2.  The zeta
evaluator is the independent oracle for the Hardy-function code: each
point gets its own truncation, an explicit remainder bound and double-double
reduction of the phases t*log(n) (Dekker 1971), so a value is the same
alone or in any batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

TWO_PI = 2.0 * math.pi
LOG_2PI = math.log(2.0 * math.pi)
# 2*pi split into high/low doubles for exact-ish argument reduction.
TWO_PI_HI = 6.283185307179586
TWO_PI_LO = 2.4492935982947064e-16

# Bernoulli numbers B_2, B_4, ..., B_30 (exact rationals rounded to binary64).
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

_FACTORIALS = tuple(float(math.factorial(k)) for k in range(33))


@dataclass(frozen=True)
class ChiValue:
    """chi(s) together with its log-modulus and argument.

    ``arg`` is the continuous (analytic) branch for |Im s| > 20 where the
    asymptotic log-space path is used; below that it is the principal
    argument.  In both regimes value == exp(log_abs + 1j*arg).
    """

    s: complex
    value: complex
    log_abs: float
    arg: float


def _near_nonpositive_int(z: complex, tol: float = 1e-12) -> bool:
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))


def loggamma(z):
    """Analytic log-Gamma, continuous on paths avoiding (-inf, 0].

    Vectorised: an array gives an array, a scalar gives a ``complex``.
    Supported for Re z > 0, or any z with |Im z| > 5 (DomainError if any
    point is outside).  Uses upward recurrence to push |z| >= 24 and then
    the Stirling series with ten Bernoulli terms, which keeps the error far
    below 1e-15 relative.
    """
    scalar = np.ndim(z) == 0
    # a scalar runs as a 1-element array, so it rounds as array elements do
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any((z.real <= 0.0) & (np.abs(z.imag) <= 5.0)):
        raise DomainError("loggamma: needs Re z > 0 or |Im z| > 5")
    # z + m is the first of z, z + 1, ... with |z + m| >= 24
    m = np.where(np.abs(z) < 24.0, np.ceil(
        np.sqrt(np.maximum(576.0 - z.imag ** 2, 0.0)) - z.real), 0.0)
    shift = np.zeros_like(z)
    for j in range(int(m.max(initial=0.0))):
        # add log(z + j) in order j = 0, 1, ...; points already done add 0
        step = np.log(z + j)
        shift += step if (j < m).all() else np.where(j < m, step, 0.0)
    z = z + m
    w = 1.0 / z
    w2 = w * w
    series = np.zeros_like(z)
    # sum B_2n / (2n(2n-1) z^(2n-1)), n = 10..1 (reverse for accuracy)
    for n in range(10, 0, -1):
        series = (series + _BERNOULLI[n - 1] / (2 * n * (2 * n - 1))) * w2
    series /= w
    out = (z - 0.5) * np.log(z) - z + 0.5 * LOG_2PI + series - shift
    return complex(out[0]) if scalar else out


def _log_sin_pi(z: complex) -> complex:
    # log(sin(pi z)) up to a multiple of 2*pi*i; callers only exponentiate.
    y = z.imag
    if y > 18.0:
        return -1j * math.pi * z - math.log(2.0) + 0.5j * math.pi \
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
    if y < -18.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(math.pi * z))


def gamma_complex(s: complex) -> complex:
    """Gamma(s) for complex s, to better than 1e-13 relative where the
    value is representable in binary64: exp(loggamma(s)) for Re s >= 1/2,
    and the reflection Gamma(s) = pi / (sin(pi s) Gamma(1-s)) in log space
    below.

    Raises PoleError at non-positive integers.  For huge |Re s| the value
    overflows binary64 and a DomainError is raised instead of returning inf.
    """
    s = complex(s)
    if _near_nonpositive_int(s):
        raise PoleError(f"Gamma pole at s={s}")
    if s.real >= 0.5:
        lg = loggamma(s)
    else:
        lg = math.log(math.pi) - _log_sin_pi(s) - loggamma(1.0 - s)
    if lg.real > 709.0:
        raise DomainError(f"Gamma(s) overflows binary64 at s={s}")
    return cmath.exp(lg)


def chi(s: complex) -> ChiValue:
    """The functional-equation factor chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s).

    Computed through the equivalent symmetric form
    pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), which has no removable
    singularities at even integers; for |Im s| > 20 the evaluation moves to
    log space (Stirling), which keeps the phase on the analytic branch.
    """
    s = complex(s)
    if _near_nonpositive_int((1.0 - s) / 2.0):
        # s = 1, 3, 5, ...: genuine poles of chi
        raise PoleError(f"chi pole at s={s}")
    if abs(s.imag) > 20.0:
        if s.imag < 0.0:
            c = chi(s.conjugate())
            return ChiValue(s, c.value.conjugate(), c.log_abs, -c.arg)
        # analytic branch: both half-arguments have |Im| > 10
        lg = loggamma(np.array([(1.0 - s) / 2.0, s / 2.0]))
        lc = complex((s - 0.5) * math.log(math.pi) + lg[0] - lg[1])
        return ChiValue(s, cmath.exp(lc), lc.real, lc.imag)
    if _near_nonpositive_int(s / 2.0):
        # s = 0, -2, -4, ...: zeros of chi
        return ChiValue(s, 0.0 + 0.0j, -math.inf, 0.0)
    value = math.pi ** 0.5 * cmath.exp((s - 1.0) * math.log(math.pi)) \
        * gamma_complex((1.0 - s) / 2.0) / gamma_complex(s / 2.0)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise AccuracyError(f"chi(s) not finite at s={s}")
    return ChiValue(s, value, math.log(abs(value)), cmath.phase(value))


# -- Riemann-Siegel theta ----------------------------------------------------

# Asymptotic tail coefficients for theta(t): coefficients of t^-1, t^-3,
# t^-5, t^-7 (classical expansion; validated against the arg-Gamma route
# to ~1e-12 at t = 10 in the test suite).
_THETA_TAIL = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0, 127.0 / 430080.0)


def riemann_siegel_theta(t: float) -> float:
    """theta(t) = -arg(chi(1/2+it))/2 on the continuous branch, theta(0) = 0.

    Scalar wrapper of theta_batch: arg Gamma below t = 10 (the asymptotic
    series is no good there); above, the asymptotic expansion with four
    correction terms, accurate to well under 1e-10.
    """
    return float(theta_batch(np.array([t], dtype=float))[0])


def theta_many(t: np.ndarray) -> np.ndarray:
    """Vectorized theta for t >= 10 (asymptotic branch only)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 10.0):
        raise DomainError("theta_many requires t >= 10")
    base = 0.5 * t * np.log(0.5 * t / math.pi) - 0.5 * t - math.pi / 8.0
    u = 1.0 / t
    u2 = u * u
    tail = np.zeros_like(t)
    for c in reversed(_THETA_TAIL):
        tail = tail * u2 + c
    return base + tail * u


def theta_batch(t: np.ndarray) -> np.ndarray:
    """theta(t) for arbitrary t >= 0 (arg-Gamma route below 10)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("theta requires t >= 0")
    out = np.empty_like(t)
    low = t < 10.0
    if np.any(low):
        out[low] = loggamma(0.25 + 0.5j * t[low]).imag \
            - 0.5 * t[low] * math.log(math.pi)
    if np.any(~low):
        out[~low] = theta_many(t[~low])
    return out


# -- double-double helpers for phase reduction -------------------------------

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def reduced_phase(t, log_n, log_err):
    """t*(log_n + log_err) reduced mod 2*pi with double-double arithmetic,
    elementwise with broadcasting.

    ``log_err`` is the correction making log_n + log_err the true logarithm
    to ~1e-16 absolute; the reduction error stays near machine epsilon even
    when the raw phase is ~1e5.
    """
    p, e = _two_prod(t, log_n)
    e = e + t * log_err
    k = np.round(p / TWO_PI)
    ph, pe = _two_prod(k, TWO_PI_HI)
    r = (p - ph) + (e - pe - k * TWO_PI_LO)
    return r


def _corrected_log(n: np.ndarray):
    # log(n) plus a first-order correction term; the pair represents the
    # true log to ~1e-16 absolute.
    ln = np.log(n)
    delta = n * np.exp(-ln) - 1.0
    return ln, delta


# -- Euler-Maclaurin zeta -----------------------------------------------------

# Cap on the elements of any temporary array in the zeta and Z kernels: 2^18
# doubles (2 MB), and on the terms of one main-sum row; the one exception is
# the multiplicative Riemann-Siegel kernel's work area, hardy._MULT_WORK =
# 2^19.  Blocks that must stay in cache are smaller: the zeta kernel's hold
# _ELEMS // 8 elements and the direct Riemann-Siegel main sum's
# hardy._SUM_ELEMS = 2^15.
_ELEMS = 1 << 18


def em_terms(t):
    """Default Euler-Maclaurin main-sum length at height t,
    max(50, ceil(1.3|t|)), as int64 (vectorised)."""
    return np.maximum(50, np.ceil(1.3 * np.abs(t))).astype(np.int64)


def zeta_half_batch(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for an array of heights."""
    return zeta_euler_maclaurin(0.5 + 1j * np.asarray(t, dtype=float))


def zeta_euler_maclaurin(s, n_terms: int | None = None,
                         n_bernoulli: int = 12, tol: float = 1e-10):
    """zeta(s) by Euler-Maclaurin summation.

    Vectorised: an array gives an array, a scalar gives a ``complex``.
    Each point has its own truncation N (``n_terms``, by default
    em_terms(Im s) = max(50, ceil(1.3|Im s|))) and the same arithmetic: the
    main sum over n < N takes t*log(n) mod 2*pi in double-double
    (reduced_phase) with a corrected log(n), and each row is one pairwise
    sum, so a value is the same bits alone or in any batch.  Defaults
    (n_bernoulli = 12) give a remainder below 1e-10 relative for
    |Im s| <= 1e4 and -1 <= Re s <= 3.  Each point's remainder bound
    (Edwards 1974, 6.4) is checked against ``tol`` (relative to
    max(|value|, 1)) and AccuracyError is raised when one exceeds it.
    """
    shape = np.shape(s)
    # a scalar runs as a 1-element array, so it rounds as array elements do
    s = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    if not np.all(np.isfinite(s)):
        raise DomainError("zeta_euler_maclaurin requires finite s")
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("zeta pole at s=1")
    q = int(n_bernoulli)
    if q < 1 or q > len(_BERNOULLI) - 1:
        raise DomainError(f"n_bernoulli must be in [1, {len(_BERNOULLI) - 1}]")
    sigma, t = s.real, s.imag
    if np.any(sigma + 2 * q + 1 <= 0):
        raise AccuracyError("remainder bound unavailable: sigma too negative")
    N = em_terms(t) if n_terms is None else np.full(s.shape, int(n_terms))
    if np.any(N < 1):
        raise DomainError("n_terms must be at least 1")
    if np.any(N > _ELEMS):
        raise DomainError(f"Euler-Maclaurin truncation N = {N.max()} exceeds "
                          f"{_ELEMS} terms (by default, |Im s| above 2.0e5)")

    # the main sum over n < N in groups of equal N, in row blocks of at most
    # _ELEMS // 8 elements (the phase reduction keeps ~10 blocks alive)
    ln, dln = _corrected_log(np.arange(1, N.max(initial=1), dtype=float))
    order = np.argsort(N, kind="stable")
    ends = np.flatnonzero(np.diff(N[order], append=-1)) + 1
    head = np.empty_like(s)
    lo = 0
    for hi in ends.tolist():
        m = int(N[order[lo]]) - 1
        step = max(1, _ELEMS // 8 // max(m, 1))
        for b in range(lo, hi, step):
            rows = order[b:min(b + step, hi)]
            sig = sigma[rows, None]
            phase = reduced_phase(t[rows, None], ln[:m], dln[:m])
            amp = np.exp(-sig * ln[:m]) * (1.0 - sig * dln[:m])
            head[rows] = (amp * np.cos(phase)).sum(axis=1) \
                - 1j * (amp * np.sin(phase)).sum(axis=1)
        lo = hi

    # boundary terms N^{1-s}/(s-1) + N^{-s}/2 and the Bernoulli tail
    # sum_{k<=q} B_2k/(2k)! (s)_{2k-1} N^{1-s-2k}
    N = N.astype(float)
    NmS = np.exp(-s * np.log(N))  # N^-s
    value = head + N * NmS / (s - 1.0) + 0.5 * NmS
    poch = s  # (s)_1
    scale = NmS / N  # N^{1-s-2} for k = 1
    for k in range(1, q + 1):
        value += _BERNOULLI[k - 1] / _FACTORIALS[2 * k] * poch * scale
        # advance (s)_{2k-1} -> (s)_{2k+1} and N^{1-s-2k} -> N^{1-s-2k-2}
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        scale = scale / (N * N)

    # remainder bound (Edwards-style): first omitted term times |s+2q+1|/(sigma+2q+1)
    rem = np.abs(_BERNOULLI[q] / _FACTORIALS[2 * q + 2] * poch) \
        * N ** (1.0 - sigma - 2 * q - 2) * np.abs(s + 2 * q + 1) / (sigma + 2 * q + 1)
    bad = rem > tol * np.maximum(np.abs(value), 1.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AccuracyError(f"Euler-Maclaurin remainder {rem[i]:.3e} exceeds "
                            f"tol {tol:.3e} at s={complex(s[i])}")
    return complex(value[0]) if shape == () else value.reshape(shape)
