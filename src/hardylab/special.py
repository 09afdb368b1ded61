"""Complex special functions: Gamma, the functional-equation factor chi,
the phase function theta, and an Euler-Maclaurin zeta evaluator.

Everything here is pure and reentrant and values are binary64.  Each
function is vectorised, and a scalar runs as a one-element array, so a
value is the same bits alone or in any batch.  log Gamma is the Stirling
series after upward recurrence to |z| >= 24; Gamma and chi are
exponentials of it, reflected only in the strip Re z <= 0, |Im z| <= 5
that the recurrence does not serve.  The zeta evaluator is the independent
oracle for the Hardy-function code: each point gets its own truncation, an
explicit remainder bound and double-double reduction of the phases
t*log(n) (Dekker 1971).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

TWO_PI = 2.0 * math.pi
LOG_2PI = math.log(2.0 * math.pi)
LOG_PI = math.log(math.pi)
# 2*pi = TWO_PI + TWO_PI_LO as high/low doubles for exact-ish argument
# reduction.
TWO_PI_LO = 2.4492935982947064e-16

# Bernoulli numbers B_2, B_4, ..., B_26 (exact rationals rounded to binary64).
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
)

_FACTORIALS = tuple(float(math.factorial(k)) for k in range(27))


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


def _nonpositive_int(z: np.ndarray) -> np.ndarray:
    # mask of the points within 1e-12 of 0, -1, -2, ...
    r = np.round(z.real)
    return (np.abs(z.imag) <= 1e-12) & (r <= 0.0) \
        & (np.abs(z.real - r) <= 1e-12 * np.maximum(1.0, np.abs(z.real)))


def _log_gamma(z: np.ndarray) -> np.ndarray:
    # log Gamma(z) up to a multiple of 2*pi*i, for an array off the poles:
    # loggamma(z), reflected in the strip Re z <= 0, |Im z| <= 5, where
    # |sin(pi z)| <= cosh(5 pi) keeps the plain logarithm finite
    refl = (z.real <= 0.0) & (np.abs(z.imag) <= 5.0)
    out = np.empty_like(z)
    out[~refl] = loggamma(z[~refl])
    out[refl] = LOG_PI - np.log(np.sin(math.pi * z[refl])) \
        - loggamma(1.0 - z[refl])
    return out


def gamma_complex(s):
    """Gamma(s) = exp(log Gamma(s)), to better than 1e-13 relative where the
    value is representable in binary64; vectorised like loggamma.

    Raises PoleError at non-positive integers, and DomainError where the
    value overflows binary64 instead of returning inf.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    pole = _nonpositive_int(s)
    if np.any(pole):
        raise PoleError(f"Gamma pole at s={s[pole][0]}")
    lg = _log_gamma(s)
    big = lg.real > 709.0
    if np.any(big):
        raise DomainError(f"Gamma(s) overflows binary64 at s={s[big][0]}")
    out = np.exp(lg)
    return complex(out[0]) if scalar else out


def chi(s):
    """The functional-equation factor chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s).

    Computed as exp((s - 1/2) log pi + log Gamma((1-s)/2) - log Gamma(s/2)),
    the symmetric form with no removable singularities at even integers;
    vectorised like loggamma.  chi is 0 at s = 0, -2, -4, ...; raises
    PoleError at s = 1, 3, 5, ... and DomainError on binary64 overflow.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    pole = _nonpositive_int((1.0 - s) / 2.0)
    if np.any(pole):
        raise PoleError(f"chi pole at s={s[pole][0]}")
    zero = _nonpositive_int(s / 2.0)
    # both log Gamma terms in one pass: a point's value does not depend on
    # the points beside it
    lg = _log_gamma(np.concatenate([(1.0 - s) / 2.0,
                                    np.where(zero, 1.0, s / 2.0)]))
    lc = (s - 0.5) * LOG_PI + lg[:len(s)] - lg[len(s):]
    lc[zero] = -np.inf
    big = lc.real > 709.0
    if np.any(big):
        raise DomainError(f"chi(s) overflows binary64 at s={s[big][0]}")
    out = np.exp(lc)
    return complex(out[0]) if scalar else out


# -- Riemann-Siegel theta ----------------------------------------------------

# Asymptotic tail coefficients for theta(t): coefficients of t^-1, t^-3,
# t^-5, t^-7 (classical expansion; validated against the arg-Gamma route
# to ~1e-12 at t = 10 in the test suite).
_THETA_TAIL = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0, 127.0 / 430080.0)


def theta_many(t: np.ndarray) -> np.ndarray:
    """Vectorized theta for finite t >= 10, in place: the asymptotic
    0.5 t ln(0.5 t / pi) - 0.5 t - pi / 8 plus its tail in 1 / t."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 10.0) & (t < np.inf)):
        raise DomainError("theta_many requires finite t >= 10")
    half = np.multiply(t, 0.5, out=np.empty_like(t))
    out = np.divide(half, math.pi, out=np.empty_like(t))
    np.log(out, out=out)
    out *= half
    out -= half
    out -= math.pi / 8.0
    u = np.divide(1.0, t, out=half)
    u2 = np.multiply(u, u)
    tail = np.full_like(t, _THETA_TAIL[-1])
    for c in _THETA_TAIL[-2::-1]:
        tail *= u2
        tail += c
    tail *= u
    out += tail
    return out


def theta_batch(t: np.ndarray) -> np.ndarray:
    """theta(t) for arbitrary finite t >= 0 (arg-Gamma route below 10)."""
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
    ph, pe = _two_prod(k, TWO_PI)
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
# doubles (2 MB), and on the terms of one Euler-Maclaurin row; the one
# exception is a Riemann-Siegel main-sum block's array, up to
# hardy._MULT_WORK = 2^19.  The zeta kernel's blocks, which must stay in
# cache, hold _ELEMS // 8 elements.
_ELEMS = 1 << 18


def zeta_half_batch(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for an array of heights."""
    return zeta_euler_maclaurin(0.5 + 1j * np.asarray(t, dtype=float))


def zeta_euler_maclaurin(s):
    """zeta(s) by Euler-Maclaurin summation.

    Vectorised: an array gives an array, a scalar gives a ``complex``.
    Each point has its own truncation N = max(50, ceil(1.3|Im s|)) and the
    same arithmetic: the main sum over n < N takes t*log(n) mod 2*pi in
    double-double (reduced_phase) with a corrected log(n), and each row is
    one pairwise sum, so a value is the same bits alone or in any batch.
    The tail has q = 12 Bernoulli terms, which keep the remainder below
    1e-10 relative for |Im s| <= 1e4 and -1 <= Re s <= 3.  Each point's
    remainder bound (Edwards 1974, 6.4) is checked against tol = 1e-10
    (relative to max(|value|, 1)) and AccuracyError is raised when one
    exceeds it.
    """
    shape = np.shape(s)
    # a scalar runs as a 1-element array, so it rounds as array elements do
    s = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    if not np.all(np.isfinite(s)):
        raise DomainError("zeta_euler_maclaurin requires finite s")
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("zeta pole at s=1")
    q, tol = 12, 1e-10
    sigma, t = s.real, s.imag
    if np.any(sigma + 2 * q + 1 <= 0):
        raise AccuracyError("remainder bound unavailable: sigma too negative")
    N = np.maximum(50, np.ceil(1.3 * np.abs(t))).astype(np.int64)
    if np.any(N > _ELEMS):
        raise DomainError(f"Euler-Maclaurin truncation N = {N.max()} exceeds "
                          f"{_ELEMS} terms (|Im s| above 2.0e5)")

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
