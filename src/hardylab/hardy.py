"""Hardy's Z function: fast Riemann-Siegel evaluation and a slow oracle.

z_rs evaluates the classical main sum 2*sum n^{-1/2} cos(theta(t) - t log n)
plus up to five remainder-correction terms C_0..C_4 built from the function
Psi(p) = cos(2*pi*(p^2 - p - 1/16)) / cos(2*pi*p), whose derivatives come
from frozen piecewise Taylor tables (scripts/gen_psi_tables.py).

z_oracle computes e^{i theta(t)} zeta(1/2+it) through the Euler-Maclaurin
evaluator and is the independent reference for every Z check.  The rotation
convention (continuous theta branch with theta(0) = 0) makes Z real with
Z(0) = zeta(1/2) < 0; the opposite square-root branch would flip Z globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .special import (TWO_PI, riemann_siegel_theta, theta_batch, theta_many,
                      zeta_euler_maclaurin, zeta_half_batch)

# -- Psi piecewise Taylor tables ----------------------------------------------
#
# Twenty expansion centers (k+0.5)/20 cover p in [0, 1] with |u| <= 0.025
# while avoiding the removable singularities at 1/4, 3/4.  The coefficient
# tables are frozen (scripts/gen_psi_tables.py); here they are expanded into
# per-derivative polynomial tables once at import.

from ._psi_tables import PSI_ORDER, PSI_PIECES, PSI_TAYLOR

_PIECE_CENTERS = (np.arange(PSI_PIECES) + 0.5) / PSI_PIECES
_MAX_DERIV = 12


def _build_deriv_tables():
    base = np.array(PSI_TAYLOR, dtype=float)  # (pieces, order+1)
    order = PSI_ORDER
    tables = np.zeros((PSI_PIECES, _MAX_DERIV + 1, order + 1))
    tables[:, 0, :] = base
    for d in range(1, _MAX_DERIV + 1):
        prev = tables[:, d - 1, :]
        # differentiate the ascending-coefficient polynomial
        tables[:, d, :order] = prev[:, 1:] * np.arange(1, order + 1)
    return tables


_PSI_TABLES = _build_deriv_tables()


def _psi_derivative(p: np.ndarray, d: int) -> np.ndarray:
    """Psi^{(d)}(p) for p in [0, 1), vectorized."""
    idx = np.clip((p * PSI_PIECES).astype(int), 0, PSI_PIECES - 1)
    u = p - _PIECE_CENTERS[idx]
    coeffs = _PSI_TABLES[idx, d]  # (B, order+1)
    out = np.zeros_like(p)
    for m in range(PSI_ORDER, -1, -1):
        out = out * u + coeffs[:, m]
    return out


# Correction-term combinations (Haselgrove/Pugh tabulation of the classical
# expansion; convention pinned empirically against z_oracle, see
# scripts/calibrate_rs_error.py).
_PI2 = math.pi ** 2


def _correction_coeffs(p: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return _psi_derivative(p, 0)
    if k == 1:
        return -_psi_derivative(p, 3) / (96.0 * _PI2)
    if k == 2:
        return (_psi_derivative(p, 2) / (64.0 * _PI2)
                + _psi_derivative(p, 6) / (18432.0 * _PI2 ** 2))
    if k == 3:
        return -(_psi_derivative(p, 1) / (64.0 * _PI2)
                 + _psi_derivative(p, 5) / (3840.0 * _PI2 ** 2)
                 + _psi_derivative(p, 9) / (5308416.0 * _PI2 ** 3))
    if k == 4:
        return (_psi_derivative(p, 0) / (128.0 * _PI2)
                + 19.0 * _psi_derivative(p, 4) / (24576.0 * _PI2 ** 2)
                + 11.0 * _psi_derivative(p, 8) / (5898240.0 * _PI2 ** 3)
                + _psi_derivative(p, 12) / (2038431744.0 * _PI2 ** 4))
    raise DomainError("corrections must be in [0, 4]")


# Remainder constants: err_est = _RS_ERR_C[K] * t^{-(2K+3)/4}; calibrated
# against z_oracle on t in [50, 5000] (scripts/calibrate_rs_error.py, sup
# times 1.5) and rounded up.
_RS_ERR_C = (0.19, 0.08, 0.016, 0.045, 0.13)
# stated error of the oracle path below t = 10
_LOW_ERR = 1e-10


def z_err_est(t, corrections: int = 3):
    """Stated error of z_eval_many at t: _RS_ERR_C[K] * t^{-(2K+3)/4} for
    t >= 10 and 1e-10 (the oracle path) below.  A scalar t gives a 0-d
    array, computed with scalar pow as z_rs has always done."""
    if not 0 <= corrections <= 4:
        raise DomainError("corrections must be in [0, 4]")
    t = np.asarray(t, dtype=float)
    rs = (_RS_ERR_C[corrections]
          * np.maximum(t, 10.0) ** (-(2 * corrections + 3) / 4.0))
    return np.where(t < 10.0, _LOW_ERR, rs)


@dataclass(frozen=True)
class ZSample:
    t: float
    value: float
    main_terms: int
    corrections: int
    err_est: float


def z_rs_many(t: np.ndarray, corrections: int = 3) -> np.ndarray:
    """Riemann-Siegel Z(t) for an array of t >= 10."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = t[None]
    if not np.all(np.isfinite(t)):
        raise DomainError("z_rs requires finite t")
    if np.any(t < 10.0):
        raise DomainError("z_rs requires t >= 10; use z_oracle below")
    if not 0 <= corrections <= 4:
        raise DomainError("corrections must be in [0, 4]")
    out = np.empty_like(t)
    step = 65536
    for lo in range(0, len(t), step):
        chunk = t[lo:lo + step]
        out[lo:lo + step] = _z_rs_chunk(chunk, corrections)
    return out


def _z_rs_chunk(t: np.ndarray, corrections: int) -> np.ndarray:
    a = np.sqrt(t / TWO_PI)
    N = np.floor(a).astype(int)
    p = a - N
    theta = theta_many(t)
    n = np.arange(1, int(N.max()) + 1, dtype=float)
    phases = theta[:, None] - t[:, None] * np.log(n)[None, :]
    terms = np.cos(phases) * (1.0 / np.sqrt(n))[None, :]
    mask = n[None, :] <= N[:, None]
    main = 2.0 * np.sum(np.where(mask, terms, 0.0), axis=1)

    corr = np.zeros_like(t)
    ainv = 1.0 / a
    scale = np.ones_like(t)
    for k in range(corrections + 1):
        corr += _correction_coeffs(p, k) * scale
        scale = scale * ainv
    sign = np.where(N % 2 == 0, -1.0, 1.0)  # (-1)^(N+1)
    return main + sign * corr / np.sqrt(a)


def z_rs(t: float, corrections: int = 3) -> ZSample:
    """Z(t) by the Riemann-Siegel formula with the requested number of
    remainder corrections (C_0..C_corrections)."""
    value = float(z_rs_many(np.array([t]), corrections)[0])
    main_terms = int(math.floor(math.sqrt(t / TWO_PI)))
    return ZSample(t=float(t), value=value, main_terms=main_terms,
                   corrections=corrections,
                   err_est=float(z_err_est(t, corrections)))


def z_oracle(t: float) -> float:
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) via Euler-Maclaurin (oracle path).

    The product must be real; AccuracyError if the residual imaginary part
    exceeds 1e-6 (it stays below ~1e-8 at desk heights).
    """
    if t < 0.0:
        raise DomainError("z_oracle requires t >= 0")
    zeta = zeta_euler_maclaurin(complex(0.5, t), extended=True)
    theta = riemann_siegel_theta(t)
    rot = complex(math.cos(theta), math.sin(theta))
    w = rot * zeta
    if abs(w.imag) > 1e-6:
        raise AccuracyError(f"z_oracle residual imaginary part {w.imag:.3e} at t={t}")
    return w.real


def z_oracle_many(t: np.ndarray) -> np.ndarray:
    """Batched oracle: e^{i theta} zeta(1/2+it) with a shared truncation.

    Equivalent to z_oracle pointwise to ~1e-12; groups heights in chunks so
    the Euler-Maclaurin truncation (sized for the chunk maximum) stays
    economical when magnitudes are mixed."""
    t = np.asarray(t, dtype=float).ravel()
    if not np.all(np.isfinite(t)):
        raise DomainError("z_oracle requires finite t")
    if np.any(t < 0.0):
        raise DomainError("z_oracle requires t >= 0")
    out = np.empty_like(t)
    order = np.argsort(t, kind="stable")
    ts = t[order]
    step = 200_000
    pos = 0
    while pos < len(ts):
        chunk = ts[pos:pos + step]
        zeta = zeta_half_batch(chunk)
        theta = theta_batch(chunk)
        w = np.exp(1j * theta) * zeta
        if np.max(np.abs(w.imag)) > 1e-6:
            raise AccuracyError("z_oracle_many residual imaginary part too large")
        out[order[pos:pos + step]] = w.real
        pos += step
    return out


def z_eval_many(t: np.ndarray, corrections: int = 3) -> np.ndarray:
    """Z on arbitrary t >= 0: oracle below t = 10, Riemann-Siegel above."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    low = t < 10.0
    if np.any(low):
        out[low] = z_oracle_many(t[low])
    if np.any(~low):
        out[~low] = z_rs_many(t[~low], corrections)
    return out


def z_breakpoints(a: float, b: float) -> tuple:
    """Points where the Riemann-Siegel evaluation is not smooth: the
    oracle/RS switch at t = 10 and the main-sum transitions t = 2*pi*n^2.
    Quadrature panels must not straddle these."""
    pts = []
    if a < 10.0 < b:
        pts.append(10.0)
    n = max(1, math.ceil(math.sqrt(max(a, 0.0) / TWO_PI)))
    while True:
        t = TWO_PI * n * n
        if t >= b:
            break
        if t > a:
            pts.append(t)
        n += 1
    return tuple(sorted(pts))
