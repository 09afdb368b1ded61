"""Modified Mellin transforms M_k(s) = integral of Z^k(x) x^{-s} over [1, inf),
their continuation through the primitive I_k, the cubic cosine series and
residual decomposition of M_3, Laurent analysis of M_2 at s = 1, and the
transform-identity checks (convolution, square, inversion, Laplace).

Every numeric result carries a certificate: an upper bound on the combined
truncation and quadrature error.  Truncated integrals run on fixed
deterministic panel grids whose integrand-independent node sets let I_k
values be cached once and reused across thousands of transform parameters;
that caching is what keeps the contour-integral checks at desk runtimes.
The square identity's right side is one Fubini sum on the moment cache's
panels: its inner integrals up to X/u are prefix sums over the same node
values, so it evaluates Z only on the last panel, clipped at X.

For even k the primitive grows like x * poly(log x); its smooth main part
is fitted once on the cache anchors and the fitted tail is integrated in
closed form past the truncation point.  Without that completion the double
pole of M_2 at s = 1 (which lives entirely in the tail) would be invisible
to any desk-scale truncation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import DivisorTable
from .errors import (AccuracyError, CapacityError, ConvergenceError,
                     DomainError, FitError)
from .explicit import CubicPrimitiveSum
from .hardy import _ELEMS, z_breakpoints, z_eval_many
from .moments import moment_cache, z_power_freq
from .quad import (GAUSS_COLS, NODES, PanelSet, integrals_at,
                   integrate_oscillatory, integrate_vertical_line, panel_edges)
from .special import TWO_PI, gamma_complex

# decay exponent of |I_k(x)| (growth certificates; k = 2, 4 via (2.8)-type
# bounds absorbed into the fitted constants)
_PRIM_EXP = {1: 0.25, 2: 1.0, 3: 0.75, 4: 1.0}
# residual exponent after subtracting the fitted smooth main part (even k)
_RESID_EXP = {2: 0.5, 4: 0.75}
_FIT_DEG = {2: 1, 4: 4}
_MARGIN = 0.01
_X_LADDER = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0)

_CAL_HI = 1.0e4  # calibration window top for primitive constants
_X_CAP = 50_000.0  # largest truncation height `hardylab mellin --X` accepts
_INVERSION_X = 4_000.0  # truncation height of transforms on inversion contours


@dataclass(frozen=True)
class MellinSample:
    s: complex
    k: int
    value: complex
    X: float
    tail_bound: float
    method: str  # direct | by_parts


# -- calibrated constants ------------------------------------------------------

@functools.cache
def primitive_constant(k: int) -> float:
    """C_k with |I_k(x)| <= C_k x^{e_k} on the desk range: calibrated as
    1.5 * sup over cache anchors up to 1e4."""
    return 1.5 * moment_cache(k).sup_scaled(_PRIM_EXP[k], 1.0, _CAL_HI)


@functools.cache
def _main_fit(k: int):
    """Fit I_k(x) ~ x * sum_m b_m (log x)^m on [500, 1e4] anchors (even k).

    Returns (b, C_res): plain-log coefficients and the calibrated residual
    constant with |I_k - fit| <= C_res x^{e_res} on the window.
    """
    deg = _FIT_DEG[k]
    cache = moment_cache(k)
    cache.ensure(_CAL_HI)
    m = (cache.edges >= 500.0) & (cache.edges <= _CAL_HI)
    x = cache.edges[m][::4]
    y = cache.values[m][::4]
    lx = np.log(x)
    c0 = lx.mean()
    A = np.stack([x * (lx - c0) ** mm for mm in range(deg + 1)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    # convert centered coefficients to plain log powers
    b = np.zeros(deg + 1)
    for mm, cc in enumerate(coef):
        for j in range(mm + 1):
            b[j] += cc * math.comb(mm, j) * (-c0) ** (mm - j)
    resid = y - A @ coef
    c_res = 1.5 * float(np.max(np.abs(resid) * x ** (-_RESID_EXP[k])))
    return b, c_res


def _log_power_tail(m: int, delta: complex, X: float) -> complex:
    # integral over [X, inf) of (log x)^m x^{-1-delta} dx, Re delta > 0:
    # I_0 = X^-delta/delta, I_j = L^j X^-delta/delta + (j/delta) I_{j-1}
    L = math.log(X)
    base = cmath.exp(-delta * L)
    out = base / delta
    for j in range(1, m + 1):
        out = base * L ** j / delta + j * out / delta
    return out


def _fitted_tail(k: int, s: complex, X: float) -> complex:
    """Closed-form s * integral over [X, inf) of fit(x) x^{-s-1} dx."""
    b, _ = _main_fit(k)
    delta = s - 1.0
    return s * sum(bm * _log_power_tail(m, delta, X) for m, bm in enumerate(b))


# -- fixed integration grids ---------------------------------------------------

class _PrimitiveGrid:
    """Deterministic panel grid for s * integral_1^X I_k(x) x^{-s-1} dx.

    The transform is computed through the exactly equivalent boundary form
    integral_1^X Z^k x^{-s} dx - I_k(X) X^{-s} (one integration by parts
    back), so the grid caches w * Z^k at the nodes once; each subsequent s
    costs a single vector exponential.  Grids are banded by |Im s|: the
    frequency hint adds the twist |Im s|/(2 pi x) so panels resolve x^{-it}
    down to x = 1.  Band 0 has no twist: its panels and Z^k values are the
    moment cache's, and only the last panel, clipped at X, evaluates Z.
    """

    def __init__(self, k: int, X: float, band: int):
        self.k = k
        self.X = X
        cache = moment_cache(k)
        if band == 0:
            # the twist vanishes: these are the moment cache's own panels
            panels, zk = cache.panels(X)
        else:
            zfreq = z_power_freq(k)
            t_band = _band_top(band)

            def freq(x: float) -> float:
                return zfreq(x) + t_band / (TWO_PI * x)

            panels = PanelSet.from_edges(
                panel_edges(1.0, X, freq, z_breakpoints(1.0, X)))
            zk = z_eval_many(panels.nodes()) ** k
        self.ln = np.log(panels.nodes())
        self.a = panels.weights() * zk
        # check weights only at the G8 columns: no zeros stored
        self.a_check = (panels.weights(check=True) * zk).reshape(
            -1, NODES)[:, GAUSS_COLS].copy()
        self.lnX = math.log(X)
        self.I_X = float(cache.eval_many(np.array([X]))[0])
        self.I_X_err = float(cache.err_at(X))

    def transform(self, s: complex) -> tuple[complex, float]:
        e = -s * self.ln
        np.exp(e, out=e)
        v_check = complex(np.sum(
            self.a_check * e.reshape(-1, NODES)[:, GAUSS_COLS]))
        e *= self.a
        v = complex(np.sum(e))
        bnd = self.I_X * cmath.exp(-s * self.lnX)
        err = abs(v - v_check) + self.I_X_err * math.exp(-s.real * self.lnX)
        return v - bnd, err


def _band(t_abs: float) -> int:
    if t_abs <= 4.0:
        return 0
    return int(math.ceil(math.log2(t_abs / 4.0)))


def _band_top(band: int) -> float:
    return 4.0 * 2.0 ** band if band > 0 else 0.0


@functools.cache
def _grid(k: int, X: float, band: int) -> _PrimitiveGrid:
    if not 1.0 <= X < math.inf:
        raise DomainError(f"truncation height X must be finite and >= 1, got {X}")
    return _PrimitiveGrid(k, X, band)


def _pick_x(k: int, sigma: float, s_abs: float, tol: float,
            completed: bool) -> float:
    e = _RESID_EXP[k] if completed else _PRIM_EXP[k]
    c = _main_fit(k)[1] if completed else primitive_constant(k)
    for X in _X_LADDER:
        if s_abs * c * X ** (e - sigma) / (sigma - e) <= tol:
            return X
    # tolerance unreachable at desk scale: settle at a documented default
    # rather than paying for a giant grid with marginal certificate gains
    return 8000.0


# -- core transforms ------------------------------------------------------------

def mellin_by_parts(k: int, s: complex, tol: float = 1e-6,
                    X: float | None = None) -> MellinSample:
    """M_k(s) through the primitive: s * integral of I_k(x) x^{-s-1}.

    Valid in the continuation regime Re s > e_k (e_1 = 1/4, e_3 = 3/4,
    e_2 = e_4 = 1).  For even k the value includes the closed-form tail of
    the fitted smooth main part of I_k, so the transform stays accurate
    arbitrarily close to the pole at s = 1; tail_bound then certifies the
    fit residual instead of the raw primitive growth.
    """
    s = complex(s)
    if k not in (1, 2, 3, 4):
        raise DomainError("mellin_by_parts supports k in {1,2,3,4}")
    if not cmath.isfinite(s):
        raise DomainError("mellin_by_parts requires finite s")
    e_k = _PRIM_EXP[k]
    if s.real <= e_k + _MARGIN:
        raise ConvergenceError(
            f"mellin_by_parts(k={k}) requires Re s > {e_k + _MARGIN}")
    if X is None:
        X = _pick_x(k, s.real, abs(s), tol, k in (2, 4))
    return _by_parts_at(k, s, X)


@functools.cache
def _by_parts_at(k: int, s: complex, X: float) -> MellinSample:
    # memoized: contour checks revisit the same nodes at a fixed X
    sigma = s.real
    value, quad_err = _grid(k, X, _band(abs(s.imag))).transform(s)
    if k in (2, 4):
        value += _fitted_tail(k, s, X)
        e, c = _RESID_EXP[k], _main_fit(k)[1]
    else:
        e, c = _PRIM_EXP[k], primitive_constant(k)
    tail = abs(s) * c * X ** (e - sigma) / (sigma - e)
    return MellinSample(s=s, k=k, value=value, X=X,
                        tail_bound=tail + quad_err, method="by_parts")


def mellin_by_parts_many(k: int, s_values: np.ndarray, X: float) -> np.ndarray:
    """by_parts values at one truncation X (shared grid, memoized)."""
    return np.array([mellin_by_parts(k, complex(sv), X=X).value
                     for sv in np.asarray(s_values).ravel()])


def mellin_direct(k: int, s: complex, X: float = 2000.0,
                  tol: float = 1e-8, budget: int | None = None) -> MellinSample:
    """M_k(s) by direct truncated quadrature of Z^k(x) x^{-s} over [1, X].

    Requires Re s > 1.1 (absolute-convergence regime with margin).  The
    certificate integrates the primitive bound by parts:
    |tail| <= 2|s| C_k X^{e_k - sigma} / (sigma - e_k).
    """
    s = complex(s)
    if k not in (1, 2, 3, 4):
        raise DomainError("mellin_direct supports k in {1,2,3,4}")
    if not cmath.isfinite(s):
        raise DomainError("mellin_direct requires finite s")
    sigma = s.real
    if sigma <= 1.1:
        raise ConvergenceError("mellin_direct requires Re s > 1.1")
    if X < 10.0:
        raise DomainError("mellin_direct requires X >= 10")
    t_im = abs(s.imag)
    zfreq = z_power_freq(k)

    def freq(x: float) -> float:
        return zfreq(x) + t_im / (TWO_PI * x)

    def f(x: np.ndarray) -> np.ndarray:
        return z_eval_many(x) ** k * np.exp(-s * np.log(x))

    res = integrate_oscillatory(f, 1.0, X, freq, tol=tol, budget=budget,
                                breakpoints=z_breakpoints(1.0, X))
    e_k = _PRIM_EXP[k]
    tail = 2.0 * abs(s) * primitive_constant(k) * X ** (e_k - sigma) / (sigma - e_k)
    return MellinSample(s=s, k=k, value=complex(res.value), X=X,
                        tail_bound=tail + res.abs_err_est, method="direct")


# -- cubic decomposition ---------------------------------------------------------

def v1_series(s: complex, N: int, table: DivisorTable) -> complex:
    """Partial sum of the cubic cosine series, the transform of the saddle
    series cut at N terms (CubicPrimitiveSum.transform):
    (2pi)^{1-s} sqrt(2/3) sum d_3(n) n^{-1/6-2s/3} cos(3 pi n^{2/3} + pi/8).

    The partial sums converge absolutely for Re s > 5/4.
    """
    if N < 1:
        raise DomainError("v1_series requires N >= 1")
    if N > table.limit:
        raise CapacityError(f"d_3 table limit {table.limit} < N = {N}")
    return _cubic_sum(table).transform(complex(s), N)


@functools.cache
def _cubic_sum(table: DivisorTable) -> CubicPrimitiveSum:
    return CubicPrimitiveSum(table)


@functools.cache
def residual_constant(table: DivisorTable, x_hi: float = 2000.0) -> float:
    """C_r with |I_3(x) - cubic sum(x)| <= C_r x^{4/5} on the desk range,
    calibrated at 1.5 * sup over anchors in [10, x_hi]."""
    cache = moment_cache(3)
    cache.ensure(x_hi)
    m = (cache.edges >= 10.0) & (cache.edges <= x_hi)
    xs = cache.edges[m]
    r = cache.values[m] - _cubic_sum(table).eval_many(xs)
    return 1.5 * float(np.max(np.abs(r) * xs ** (-0.8)))


@functools.cache
def _v2_grid(table: DivisorTable, X: float):
    cube = _cubic_sum(table)
    n_cut = cube.cutoff(X)
    # grid must break where the cutoff sum jumps: x = 2 pi m^{2/3}
    jumps = tuple(TWO_PI * m ** (2.0 / 3.0) for m in range(1, n_cut + 1))
    panels = PanelSet.from_edges(panel_edges(
        1.0, X, z_power_freq(3), z_breakpoints(1.0, X) + jumps))
    x = panels.nodes()
    r = moment_cache(3).eval_many(x) - cube.eval_many(x)
    return np.log(x), panels.weights() * r, n_cut


def v2_residual(s: complex, X: float, table: DivisorTable) -> complex:
    """The residual transform s * integral of (I_3 - cubic sum)(x) x^{-s-1}
    over [1, X], minus the closed-form contribution S(X) X^{-s} of the
    frozen cutoff sum on [X, inf).

    With N = floor((X/2pi)^{3/2}) matched, v1_series(s, N) + v2_residual(s, X)
    telescopes exactly (up to quadrature) to the X-truncated transform of
    I_3, i.e. to mellin_by_parts(3, s, X=X) before its tail certificate.
    Regular for Re s > 3/4; requires Re s > 0.8.
    """
    s = complex(s)
    if s.real <= 0.8:
        raise ConvergenceError("v2_residual requires Re s > 0.8")
    if X < 100.0:
        raise DomainError("v2_residual requires X >= 100")
    cube = _cubic_sum(table)
    if cube.cutoff(X) > table.limit:
        raise CapacityError("d_3 table too small for X")
    lnx, a, n_cut = _v2_grid(table, X)
    val = complex(np.sum(a * np.exp(-(s + 1.0) * lnx)))
    boundary = cube.prefix[n_cut] * cmath.exp(-s * math.log(X))
    return s * val - boundary


def m3_decomposition(s: complex, X: float, table: DivisorTable) -> dict:
    """V1 + V2 against the X-truncated transform of I_3 at matched cutoffs,
    which they telescope to (see v2_residual)."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("m3_decomposition requires finite s")
    grid = _grid(3, X, _band(abs(s.imag)))  # first: it checks X
    n_cut = _cubic_sum(table).cutoff(X)
    v1 = v1_series(s, n_cut, table)
    v2 = v2_residual(s, X, table)
    m3 = grid.transform(s)[0]
    gap = abs(v1 + v2 - m3)
    return {
        "s": s, "X": float(X), "N": n_cut,
        "v1": v1, "v2": v2, "sum": v1 + v2, "m3": m3,
        "gap_abs": gap, "gap_rel": gap / abs(m3),
    }


# -- Laurent fit around s = 1 ----------------------------------------------------

def laurent_fit_at_1(samples) -> tuple[float, float, float]:
    """Least squares of value ~ c_-2 d^-2 + c_-1 d^-1 + c_0 on (d, value)
    pairs; d real in [0.02, 0.2].  FitError if the residual exceeds 10% of
    the smallest retained basis-term magnitude."""
    ds = np.array([float(d) for d, _ in samples])
    vals = np.array([complex(v).real for _, v in samples])
    if np.any(ds <= 0.0) or len(set(ds.tolist())) != len(ds):
        raise DomainError("laurent_fit_at_1 needs distinct positive deltas")
    A = np.stack([ds ** -2.0, ds ** -1.0, np.ones_like(ds)], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = float(np.max(np.abs(vals - A @ coef)))
    d_max = float(ds.max())
    scales = [abs(coef[0]) * d_max ** -2.0, abs(coef[1]) * d_max ** -1.0]
    floor = 0.1 * min(sc for sc in scales if sc > 0.0)
    if resid > floor:
        raise FitError(f"Laurent fit residual {resid:.3e} exceeds {floor:.3e}")
    return float(coef[0]), float(coef[1]), float(coef[2])


def laurent_samples(deltas=(0.02, 0.03, 0.05, 0.08, 0.12, 0.2)):
    """(delta, M_2(1+delta)) pairs from the continuation path."""
    return [(d, mellin_by_parts(2, complex(1.0 + d, 0.0)).value) for d in deltas]


# -- identity checks -------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: complex
    rhs: complex
    gap_abs: float
    gap_rel: float
    certificates: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs if self.lhs.imag else self.lhs.real,
            "rhs": self.rhs if self.rhs.imag else self.rhs.real,
            "gap_abs": self.gap_abs,
            "gap_rel": self.gap_rel,
            "certificates": dict(self.certificates),
            "params": dict(self.params),
        }


def _report(name, lhs, rhs, certificates, params) -> IdentityReport:
    lhs, rhs = complex(lhs), complex(rhs)
    gap = abs(lhs - rhs)
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, gap_abs=gap,
                          gap_rel=gap / max(abs(lhs), 1e-300),
                          certificates=certificates, params=params)


def check_convolution(k: int, r: int, s: complex, c: float, V: float,
                      tol: float = 5e-4, x_nodes: float = 2000.0) -> IdentityReport:
    """M_k(s) against (1/2 pi i) * integral over Re w = c of
    M_{k-r}(w) M_r(1-w+s) dw, truncated at |Im w| = V.

    Contour-node transforms run at a fixed truncation ``x_nodes`` (their
    oscillatory tails are far below the a-priori certificates); the V-
    truncation of the contour dominates the gap.  For real s conjugate
    symmetry halves the contour.
    """
    s = complex(s)
    if not 1 <= r < k:
        raise DomainError("check_convolution requires 1 <= r < k")
    lhs_s = mellin_by_parts(k, s, tol=tol)

    def F(w: np.ndarray) -> np.ndarray:
        a = mellin_by_parts_many(k - r, w, X=x_nodes)
        b = mellin_by_parts_many(r, 1.0 - w + s, X=x_nodes)
        return a * b

    quad = integrate_vertical_line(F, c, 0.0 if s.imag == 0.0 else -V, V,
                                   tol=tol, max_panel=2.0)
    rhs, quad_err = quad.value, quad.abs_err_est
    if s.imag == 0.0:  # full contour = 2 Re(half)
        rhs, quad_err = 2.0 * rhs.real, 2.0 * quad_err
    # integrand decay |w|^{-2(c - e)} per factor bound gives the truncation
    e1, e2 = _PRIM_EXP[k - r], _PRIM_EXP[r]
    decay = (c - max(e1, e2))
    trunc = abs(lhs_s.value) * V ** (1.0 - 2.0 * decay) if decay > 0.5 else math.inf
    certs = {
        "lhs_tail": lhs_s.tail_bound,
        "contour_quad": quad_err,
        "contour_trunc_order": trunc,
    }
    params = {"k": k, "r": r, "s": s, "c": c, "V": V}
    return _report("convolution", lhs_s.value, rhs, certs, params)


def _fubini_rhs(k: int, s: complex, X: float) -> tuple[complex, float]:
    """The square identity's right side in the (u, v) order: the sum over
    outer nodes u of w_u Z^k(u) u^{-s} P(X/u), P(y) the integral of
    Z^k(v) v^{-s} over [1, y], both levels on the moment cache's panels.
    The estimate is the outer |K17 - G8| plus sum |w_u Z^k(u) u^{-s}| times
    the inner |K17 - G8| summed through the panel of X/u."""
    panels, zk = moment_cache(k).panels(X)
    u = panels.nodes()
    y = zk * np.exp(-s * np.log(u))
    val = panels.sums(y)
    err = np.abs(val - panels.sums(y, check=True))
    inner, idx = integrals_at(panels.lo, panels.hi, np.append(0.0, np.cumsum(val)),
                              y.reshape(-1, NODES), X / u)
    wy = panels.weights() * y
    v = complex(np.sum(wy * inner))
    v_check = complex(np.sum(panels.weights(check=True) * y * inner))
    inner_err = float(np.sum(np.abs(wy) * np.cumsum(err)[idx]))
    return v, abs(v - v_check) + inner_err


def check_square_identity(k: int, s: complex, X: float = 500.0) -> IdentityReport:
    """M_k(s)^2 against 2 * integral over [1, X] of x^{-s} (inner) dx with
    inner(x) = integral of Z^k(u) Z^k(x/u) du/u over [sqrt(x), x].

    With v = x/u that is the integral of Z^k(u) Z^k(v) (uv)^{-s} over
    uv <= X, u, v >= 1, which _fubini_rhs sums on the moment cache."""
    s = complex(s)
    if s.real <= 2.0:
        raise ConvergenceError("check_square_identity requires Re s > 2")
    direct = mellin_direct(k, s, X=max(2000.0, X))
    lhs = direct.value ** 2
    rhs, rhs_err = _fubini_rhs(k, s, X)
    certs = {
        "lhs_tail": 2.0 * abs(direct.value) * direct.tail_bound,
        "rhs_quad": rhs_err,
        "rhs_trunc_order": abs(lhs) * X ** (0.5 * k + 0.5 - s.real),
    }
    params = {"k": k, "s": s, "X": X}
    return _report("square", lhs, rhs, certs, params)


# memoized inversion nodes: panels tile outward from t = 0 so contours of
# different height U reuse each other's M_k evaluations
def truncated_inversion(k: int, x: float, c: float, U: float,
                        x_trunc: float | None = None) -> float:
    """(1/2 pi i) * integral of x^{s-1} M_k(s) ds over [c-iU, c+iU].

    Conjugate symmetry of M_k reduces this to (1/pi) Re integral over
    [0, U]; the imaginary part is exactly zero by construction.  M_k along
    the segment is memoized, so U-sweeps at fixed c cost one tall contour.
    """
    if c <= 1.0:
        raise ConvergenceError("truncated_inversion requires c > 1")
    if U < 4.0 * x:
        raise DomainError("truncated_inversion requires U >= 4x")
    x_trunc = _INVERSION_X if x_trunc is None else x_trunc
    freq = max(math.log(x), 0.1) / TWO_PI
    # the t-integrand is a pure tone of known frequency times a smooth
    # decaying factor: K17 takes two periods of a pure tone to within 1e-15
    # of the panel width, so panels are two periods wide from t = 0
    panels = PanelSet.from_edges(
        panel_edges(0.0, U, lambda t: 0.0, max_panel=2.0 / freq))

    ts = panels.nodes()
    m = mellin_by_parts_many(k, c + 1j * ts, x_trunc)
    vals = (np.exp((c - 1.0 + 1j * ts) * math.log(x)) * m).real
    v = float(np.sum(panels.weights() * vals))
    v_check = float(np.sum(panels.weights(check=True) * vals))
    if abs(v - v_check) > 10.0 * max(abs(v) * 0.5, 1.0):
        raise AccuracyError("inversion quadrature unstable")
    return v / math.pi


@functools.cache
def _laplace_grid(y_max: float):
    # the k = 1 moment cache's panels and Z values on [1, y_max]
    panels, z = moment_cache(1).panels(y_max)
    return panels.nodes(), z * panels.weights()


def _lbar_many(xs: np.ndarray, y: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """Lbar(x) for every x: the sum of zy e^{-x y} over the prefix y <= 745/x
    of the ascending grid y.  Rows go by descending prefix in blocks of at
    most _ELEMS (rows x columns); a row shorter than its block's widest
    gains only terms below e^{-745}, which underflow."""
    width = np.searchsorted(y, 745.0 / xs, side="right")
    order = np.argsort(-width, kind="stable")
    out = np.zeros(len(xs))
    i = 0
    while i < len(order):
        n = int(width[order[i]])
        rows = order[i:i + max(1, _ELEMS // max(n, 1))]
        step = _ELEMS // len(rows)
        for j in range(0, n, step):
            cols = slice(j, min(n, j + step))
            e = np.multiply.outer(-xs[rows], y[cols])
            np.exp(e, out=e)
            e *= zy[cols]
            out[rows] += e.sum(axis=1)
        i += len(rows)
    return out


def laplace_consistency(s: complex, tol: float = 1e-5) -> IdentityReport:
    """integral over x of Lbar(x) x^{s-1} against M_1(s) Gamma(s), where
    Lbar(x) = integral of Z(y) e^{-x y} over [1, inf)."""
    s = complex(s)
    if not 1.0 < s.real < 3.0:
        raise DomainError("laplace_consistency requires 1 < Re s < 3")
    sigma = s.real
    c1 = primitive_constant(1)
    gamma54 = 1.1330030963963883  # Gamma(5/4)
    # |Lbar(x)| <= C_1 Gamma(5/4) x^{-1/4}; choose the lower cut so the
    # dropped mass stays under tol
    x_lo = (tol * (sigma - 0.25) / (c1 * gamma54)) ** (1.0 / (sigma - 0.25))
    x_hi = 50.0
    y_max = min(745.0 / x_lo, 2.0e4)
    # cached weighted Z on a fixed y-grid, shared by all outer nodes
    y, zy = _laplace_grid(y_max)

    def outer(vs: np.ndarray) -> np.ndarray:
        # x = e^v substitution
        return _lbar_many(np.exp(vs), y, zy) * np.exp(s * vs)

    res = integrate_oscillatory(outer, math.log(x_lo), math.log(x_hi),
                                lambda v: 0.3, tol=tol, max_panel=0.5)
    lhs = complex(res.value)
    m1 = mellin_by_parts(1, s, tol=tol)
    gamma_s = gamma_complex(s)
    rhs = m1.value * gamma_s
    certs = {
        "outer_quad": res.abs_err_est,
        "lower_cut": c1 * gamma54 * x_lo ** (sigma - 0.25) / (sigma - 0.25),
        "upper_cut": math.exp(-x_hi) * 10.0,
        "mellin_tail": m1.tail_bound * abs(gamma_s),
        "inner_trunc": math.exp(-700.0),
    }
    params = {"s": s, "x_lo": x_lo, "x_hi": x_hi, "y_max": y_max}
    return _report("laplace", lhs, rhs, certs, params)
