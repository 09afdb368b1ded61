"""Modified Mellin transforms M_k(s) = integral of Z^k(x) x^{-s} over [1, inf),
their continuation through the primitive I_k, the cubic cosine series and
residual decomposition of M_3, Laurent analysis of M_2 at s = 1, and the
transform-identity checks (convolution, square, inversion, Laplace).

Every numeric result carries a certificate: an upper bound on the combined
truncation and quadrature error.  Truncated integrals run on fixed
deterministic panel grids, and a transform at any batch of s is an
exponential sum sum_i a_i e^{-s l_i} over a grid's nodes l_i = ln x_i.  One
engine (_ExpSum) serves every such sum: it cuts the panels into at most
_SEGMENTS slices and puts each Im s within _TAYLOR_R of a centre on the
lattice 2 _TAYLOR_R Z.  Per (Re s, centre) it makes one pass over the nodes
(one real exponential when the centre is 0, as for every real s) and a
fixed set of Taylor moments per slice and panel column; a value and its G8
check are two weightings of those moments, and each s then costs a Horner
sum over the slices, independent of the node count.  A contour of thousands
of s thus costs one node pass per centre instead of one complex exponential
per node per s, and a value does not depend on the batch it came in.
The direct transform of Z^k truncated at X and the continuation through
I_k read the same sum, on one grid per (k, X, band of |Im s|); the
continuation subtracts the boundary term I_k(X) X^{-s}.  The square
identity's right side is one Fubini sum on the moment cache's panels: its
inner integrals up to X/u are prefix sums over the same node values, so it
evaluates Z only on the last panel, clipped at X.

A grid forms its nodes, their logs and the weight times Z^k products in
place: it holds two node-sized arrays, u and a.

In the cubic decomposition M_3 = V_1 + V_2 the series S_3's part of V_2 is
-V_1 in closed form, so V_2 is s times the integral of I_3 x^{-s-1} on
M_3's band-0 panels less V_1, and no grid breaks at S_3's jumps: V_2's
engine is M_3's band-0 one, u and slices shared, with weights of its own
(K17 weight times I_3).  At
matched cutoffs the gap of V_1 + V_2 against M_3 compares that I_3
quadrature with the by-parts Z^3 quadrature on the same panels: a
quadrature-consistency check, which does not see the series' terms c_n.

For even k the primitive grows like x * poly(log x); its smooth main part
is fitted once on the cache anchors and the fitted tail is integrated in
closed form past the truncation point.  Without that completion the double
pole of M_2 at s = 1 (which lives entirely in the tail) would be invisible
to any desk-scale truncation.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import divisor_sieve
from .errors import AccuracyError, ConvergenceError, DomainError, FitError
from .explicit import CubicPrimitiveSum, cutoff
from .hardy import _ELEMS, z_breakpoints, z_eval_many
from .moments import moment_cache, power_in_place, z_freq
from .quad import (CHECK_RATIO, NODES, PanelSet, check_heights, integrals_at,
                   integrate_vertical_line, panel_edges)
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
    """Fit I_k(x) ~ x * sum_m b_m (log x)^m on every cache anchor in
    [500, 1e4] (even k).

    Returns (b, C_res): plain-log coefficients and the calibrated residual
    constant with |I_k - fit| <= C_res x^{e_res} on the window.
    """
    deg = _FIT_DEG[k]
    cache = moment_cache(k)
    cache.ensure(_CAL_HI)
    m = (cache.edges >= 500.0) & (cache.edges <= _CAL_HI)
    x = cache.edges[m]
    y = cache.values[m]
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


def _log_power_tail(m: int, delta: np.ndarray, X: float) -> np.ndarray:
    # integral over [X, inf) of (log x)^m x^{-1-delta} dx, Re delta > 0:
    # I_0 = X^-delta/delta, I_j = L^j X^-delta/delta + (j/delta) I_{j-1}
    L = math.log(X)
    base = np.exp(-delta * L)
    out = base / delta
    for j in range(1, m + 1):
        out = base * L ** j / delta + j * out / delta
    return out


def _fitted_tail(k: int, s: np.ndarray, X: float) -> np.ndarray:
    """Closed-form s * integral over [X, inf) of fit(x) x^{-s-1} dx."""
    b, _ = _main_fit(k)
    delta = s - 1.0
    return s * sum(bm * _log_power_tail(m, delta, X) for m, bm in enumerate(b))


# -- the exponential-sum engine ------------------------------------------------

_TAYLOR_R = 4.0  # r: every Im s lies within r of a centre in 2r Z
_SEGMENTS = 16  # J: at most this many slices, cut at panel starts
_TAYLOR_TOL = 1e-17  # bound on (|delta| R)^{P+1} / (P+1)! at the order P
_S_BLOCK = 256  # s per Horner block: temporaries do not grow with the batch
# per K17 column, its (value, check) weights over its K17 weight: [2, 1, NODES]
_COLUMN_WEIGHTS = np.stack([np.ones(NODES), CHECK_RATIO])[:, None]


def _taylor_orders(x: np.ndarray) -> np.ndarray:
    """Elementwise, the least P >= 0 with x^{P+1} / (P+1)! <= _TAYLOR_TOL,
    from the running products x/1 * x/2 * ... (the largest x sets how many
    rows they need; a column's rows do not depend on the other columns)."""
    n, top = 1, float(np.max(x, initial=0.0))
    term = top
    while term > _TAYLOR_TOL:
        n += 1
        term *= top / n
    terms = np.cumprod(x / np.arange(1.0, n + 1.0)[:, None], axis=0)
    return np.argmax(terms <= _TAYLOR_TOL, axis=0)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The sum over the first axis by halving, one elementwise add per
    level: every column gets the same tree of additions at any width."""
    while len(rows) > 1:
        h = len(rows) // 2
        head = rows[:h] + rows[h:2 * h]
        rows = np.concatenate([head, rows[2 * h:]]) if len(rows) % 2 else head
    return rows[0]


class _ExpSum:
    """sum_i a_i e^{-s l_i} over the ascending nodes l_i of a K17 panel
    grid (a_i: K17 weight times integrand), for a batch of s: a row of
    values and a row of G8 check values.

    The panels are cut into at most _SEGMENTS slices of about equal l-width:
    slice j has centre L_j and half-width R_j, u = l - L_j.  Each s is
    sigma + i (t_q + delta) with the centre t_q = 2r round(Im s / 2r), so
    |delta| <= r, and e^{-s l} = e^{-s L_j} e^{-(sigma + i t_q) u} e^{-i delta u}.
    One pass per (sigma, t_q) forms w = a e^{-(sigma + i t_q) u}, a real
    exponential when t_q = 0, and the sums of w u^p per slice and panel
    column.  A node's G8 weight is its K17 weight times a fixed ratio per
    column (quad.CHECK_RATIO), so the value and check moments m_{j,p}
    are the column sums weighted by 1 and by that ratio; then, by Horner in
    -i delta,

        sum = sum_j e^{-s L_j} sum_{p <= P_s} (-i delta)^p m_{j,p} / p!,

    with P_s the least order where (|delta| R)^{P_s+1} / (P_s+1)! <=
    _TAYLOR_TOL, R = max R_j.  For real delta u that is the Lagrange
    remainder of e^{-i delta u}, so the cut costs at most
    sum_j S_j (|delta| R_j)^{P_s+1} / (P_s+1)!, S_j = sum over slice j of
    |a| e^{-sigma l} over both rows.  Products, sums and the sums over
    columns and slices are elementwise in a fixed order (no matmul), so a
    value depends only on (nodes, sigma, t_q, delta), never on its batch;
    an s with delta = 0 reads m_{j,0} alone.  Memory: three node-sized
    arrays per centre and Horner blocks of _S_BLOCK s, whatever the batch.
    """

    def __init__(self, ln: np.ndarray, a: np.ndarray):
        """ln, the nodes, is overwritten: it becomes u."""
        if not len(ln):  # X = 1: one panel of weight 0
            ln, a = np.zeros(NODES), np.zeros(NODES)
        ln, self.a = ln.reshape(-1, NODES), a.reshape(-1, NODES)
        cuts = np.searchsorted(ln[:, 0], np.linspace(
            ln[0, 0], ln[-1, -1], _SEGMENTS + 1)[1:-1])
        # ascending: drop repeats by their diff (np.unique imports numpy.ma)
        cuts = np.append(0, cuts[cuts < len(ln)])
        self.starts = cuts[np.append(True, np.diff(cuts) > 0)]
        ends = np.append(self.starts[1:], len(ln))
        lo, hi = ln[self.starts, 0], ln[ends - 1, -1]
        self.centre, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.radius = float(self.half.max())
        # ln becomes u in place: each panel less its slice's centre
        ln -= np.repeat(self.centre, ends - self.starts)[:, None]
        self.u = ln

    def reweighted(self, a: np.ndarray) -> "_ExpSum":
        """The sum with node weights a on the same nodes and slices: u and
        the slice arrays are shared, not copied."""
        twin = copy.copy(self)
        twin.a = a.reshape(-1, NODES)
        return twin

    def sums(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values and check values at every s of a flat complex array,
        as two rows, and a bound on their Taylor truncation."""
        sigma = s.real + 0.0  # no -0.0 keys
        tq = 2.0 * _TAYLOR_R * np.rint(s.imag / (2.0 * _TAYLOR_R)) + 0.0
        delta = s.imag - tq
        out, trunc = np.empty((2, len(s)), dtype=complex), np.empty(len(s))
        keys, inv = np.unique(sigma + 1j * tq, return_inverse=True)
        for g, key in enumerate(keys.tolist()):
            idx = np.flatnonzero(inv == g)
            out[:, idx], trunc[idx] = self._centre(
                key.real, key.imag, s.imag[idx], delta[idx])
        return out, trunc

    def _moments(self, sigma, tq, P):
        """The node pass: m[p, (Re, Im), (value, check) x J, 1] for p <= P,
        and S_j."""
        u = self.u
        # amp = a e^{-sigma u}; w = amp (cos, sin)(-t_q u), the (Re, Im) of
        # a e^{-(sigma + i t_q) u}, or amp alone if t_q = 0
        amp = u * -sigma
        np.exp(amp, out=amp)
        amp *= self.a
        # S_j only bounds a Taylor cut: none at P = 0
        S = np.add.reduceat(np.abs(amp), self.starts) if P else 0.0
        if tq == 0.0:
            w = amp[None]
        else:
            w = np.empty((2, *u.shape))
            np.multiply(u, -tq, out=w[1])
            np.cos(w[1], out=w[0])
            np.sin(w[1], out=w[1])
            w *= amp
        del amp
        # per slice and column: w u^p for p <= P (Im 0 if t_q = 0), then |amp|
        cols = np.zeros((P + 2, 2, len(self.starts), NODES))
        cols[-1, 0] = S
        np.add.reduceat(w, self.starts, axis=1, out=cols[0, :len(w)])
        for p in range(1, P + 1):
            w *= u
            np.add.reduceat(w, self.starts, axis=1, out=cols[p, :len(w)])
        del w  # before the column temporaries
        # (value, check) sums: the columns times _COLUMN_WEIGHTS, in a fixed order
        m = _row_sum(np.moveaxis(cols[..., None, :, :] * _COLUMN_WEIGHTS, -1, 0))
        return m[:-1].reshape(P + 1, 2, -1, 1), _row_sum(m[-1, 0])[:, None]

    def _centre(self, sigma, tq, t, delta):
        mag = np.exp(-sigma * self.centre)[:, None]
        # the largest |delta| has the highest order
        P = int(_taylor_orders(np.abs(delta).max(keepdims=True) * self.radius)[0])
        m, S = self._moments(sigma, tq, P)
        sign = np.array([1.0, -1.0])[:, None, None]
        fact = np.array([float(math.factorial(q)) for q in range(P + 2)])
        out, trunc = np.empty((2, len(t)), dtype=complex), np.zeros(len(t))
        for i in range(0, len(t), _S_BLOCK):
            sl = slice(i, i + _S_BLOCK)
            d = delta[sl]
            o = _taylor_orders(np.abs(d) * self.radius)
            p = np.arange(int(o.max()) + 1)
            # Horner in -i delta on (Re, Im): h <- m_p + (-i delta/(p+1)) h,
            # h = 0 above each s's own order
            g = (d / (p + 1.0)[:, None])[:, None, None, :] * sign
            on = (o >= p[:, None])[:, None, None, :]
            h = np.zeros((2, m.shape[2], len(d)))
            for q in p[::-1].tolist():
                h = np.where(on[q], m[q] + h[::-1] * g[q], 0.0)
            h = h.reshape(2, 2, len(self.centre), -1)
            # times e^{-s L_j} = mag (cos - i sin)(t L_j), summed over j
            theta = np.multiply.outer(self.centre, t[sl])
            er, ei = mag * np.cos(theta), mag * np.sin(theta)
            v = er * h + ei * h[::-1] * sign[..., None]
            out.real[:, sl], out.imag[:, sl] = _row_sum(v.transpose(2, 0, 1, 3))
            if P:
                x = np.abs(d) * self.half[:, None]
                trunc[sl] = _row_sum(S * mag * x ** (o + 1) / fact[o + 1])
        return out, trunc


# -- fixed integration grids ---------------------------------------------------

class _PrimitiveGrid:
    """Deterministic panel grid for integral_1^X Z^k(x) x^{-s} dx, the
    direct transform truncated at X, and for s * integral_1^X I_k(x)
    x^{-s-1} dx, the same less I_k(X) X^{-s} (one integration by parts).

    The grid keeps the K17 weights times Z^k at its nodes as one _ExpSum,
    whose G8 check comes from the same node pass: a batch of s costs one
    node pass per centre, whatever its size.  Panels are sized by Z's own
    frequency for every k, and grids are banded by |Im s|: the frequency
    hint adds the twist t / (2 pi x) of x^{-it}, t the band's top, so
    panels resolve x^{-it} down to x = 1.  Band 0 has no twist: its panels
    and Z^k values are the moment cache's, and only the last panel, clipped
    at X, evaluates Z.
    """

    def __init__(self, k: int, X: float, band: int):
        cache = moment_cache(k)
        if band == 0:
            # the twist vanishes: these are the moment cache's own panels
            panels, zk = cache.panels(X)
            ln = panels.nodes()
        else:
            t = 4.0 * 2.0 ** band
            panels = PanelSet.from_edges(panel_edges(
                1.0, X, lambda x: z_freq(x) + t / (TWO_PI * x),
                z_breakpoints(1.0, X)))
            ln = panels.nodes()
            zk = power_in_place(z_eval_many(ln), k)
        self.engine = _ExpSum(np.log(ln, out=ln), panels.weigh(zk))
        self.lnX = math.log(X)
        self.I_X = float(cache.eval_many(np.array([X]))[0])
        self.I_X_err = float(cache.err_at(X))

    def direct(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """integral_1^X Z^k x^{-s} dx at every s, and its estimate:
        |K17 - G8| and the Taylor cut.  The |K17 - G8| is of the sums over
        the whole grid, so panel errors of opposite sign cancel in it,
        where a per-panel sum (PanelSet.integrate) adds their sizes."""
        (v, v_check), trunc = self.engine.sums(s)
        return v, np.abs(v - v_check) + trunc

    def truncated(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """s * integral_1^X I_k x^{-s-1} dx at every s, and its estimate:
        direct's plus I_k(X)'s error times X^{-sigma}."""
        v, err = self.direct(s)
        err += self.I_X_err * np.exp(-s.real * self.lnX)
        return v - self.I_X * np.exp(-s * self.lnX), err


def _band(t_abs: np.ndarray) -> np.ndarray:
    """The least band b >= 0 with |Im s| <= 4 * 2^b, elementwise."""
    m, e = np.frexp(t_abs / 4.0)  # t/4 = m 2^e, 1/2 <= m < 1
    return np.where(t_abs <= 4.0, 0, e - (m == 0.5))


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

def _finite(name: str, s_values) -> np.ndarray:
    """s_values as a flat complex array; DomainError unless all are finite."""
    s = np.asarray(s_values, dtype=complex).ravel()
    if not np.all(np.isfinite(s)):
        raise DomainError(f"{name} requires finite s")
    return s


def _checked(k: int, s_values) -> np.ndarray:
    """s_values as a flat complex array, with mellin_by_parts' errors."""
    if k not in (1, 2, 3, 4):
        raise DomainError("mellin_by_parts supports k in {1,2,3,4}")
    s = _finite("mellin_by_parts", s_values)
    e_k = _PRIM_EXP[k]
    if np.any(s.real <= e_k + _MARGIN):
        raise ConvergenceError(
            f"mellin_by_parts(k={k}) requires Re s > {e_k + _MARGIN}")
    return s


def _truncated(k: int, s: np.ndarray, X: float) -> tuple[np.ndarray, np.ndarray]:
    """_PrimitiveGrid.truncated at every s: one call per band grid."""
    value = np.empty(len(s), dtype=complex)
    err = np.empty(len(s))
    bands = _band(np.abs(s.imag))
    for band in np.flatnonzero(np.bincount(bands)).tolist():
        m = bands == band
        value[m], err[m] = _grid(k, X, band).truncated(s[m])
    return value, err


def _by_parts(k: int, s: np.ndarray, X: float) -> tuple[np.ndarray, np.ndarray]:
    """Values and certificates of mellin_by_parts at checked s and one X,
    elementwise over the batch."""
    value, quad_err = _truncated(k, s, X)
    sigma = s.real
    if k in (2, 4):
        value += _fitted_tail(k, s, X)
        e, c = _RESID_EXP[k], _main_fit(k)[1]
    else:
        e, c = _PRIM_EXP[k], primitive_constant(k)
    tail = np.abs(s) * c * X ** (e - sigma) / (sigma - e)
    return value, tail + quad_err


def mellin_by_parts(k: int, s: complex, tol: float = 1e-6,
                    X: float | None = None) -> MellinSample:
    """M_k(s) through the primitive: s * integral of I_k(x) x^{-s-1}.

    Valid in the continuation regime Re s > e_k (e_1 = 1/4, e_3 = 3/4,
    e_2 = e_4 = 1).  For even k the value includes the closed-form tail of
    the fitted smooth main part of I_k, so the transform stays accurate
    arbitrarily close to the pole at s = 1; tail_bound then certifies the
    fit residual instead of the raw primitive growth.  A one-element
    mellin_by_parts_samples call.
    """
    return mellin_by_parts_samples(k, [complex(s)], tol, X)[0]


def mellin_by_parts_samples(k: int, s_values, tol: float = 1e-6,
                            X: float | None = None) -> list[MellinSample]:
    """mellin_by_parts at every s, grouped by truncation X (picked per s
    when X is None) and band into one engine call per grid; each sample
    has the bits of its own mellin_by_parts call."""
    s = _checked(k, s_values)
    if X is None:
        Xs = np.array([_pick_x(k, sv.real, abs(sv), tol, k in (2, 4))
                       for sv in s.tolist()])
    else:
        Xs = np.full(len(s), float(X))
    keys, inv = np.unique(Xs, return_inverse=True)
    value = np.empty(len(s), dtype=complex)
    bound = np.empty(len(s))
    for g, x in enumerate(keys.tolist()):
        m = inv == g
        value[m], bound[m] = _by_parts(k, s[m], x)
    return [MellinSample(s=sv, k=k, value=v, X=x, tail_bound=b,
                         method="by_parts")
            for sv, v, x, b in zip(s.tolist(), value.tolist(), Xs.tolist(),
                                   bound.tolist())]


def mellin_by_parts_many(k: int, s_values: np.ndarray, X: float) -> np.ndarray:
    """mellin_by_parts values at every s, at one truncation X."""
    return _by_parts(k, _checked(k, s_values), X)[0]


def mellin_direct(k: int, s: complex, X: float = 2000.0) -> MellinSample:
    """M_k(s) as the integral of Z^k(x) x^{-s} over [1, X]: the sum of its
    band's transform grid, which mellin_by_parts continues past its
    boundary term.

    Requires Re s > 1.1 (absolute-convergence regime with margin).  The
    certificate is the grid's estimate plus the primitive bound integrated
    by parts: |tail| <= 2|s| C_k X^{e_k - sigma} / (sigma - e_k).
    """
    if k not in (1, 2, 3, 4):
        raise DomainError("mellin_direct supports k in {1,2,3,4}")
    s = complex(_finite("mellin_direct", s)[0])
    sigma = s.real
    if sigma <= 1.1:
        raise ConvergenceError("mellin_direct requires Re s > 1.1")
    if not 10.0 <= X < math.inf:
        raise DomainError("mellin_direct requires finite X >= 10")

    value, err = _grid(k, X, int(_band(abs(s.imag)))).direct(np.array([s]))
    e_k = _PRIM_EXP[k]
    tail = 2.0 * abs(s) * primitive_constant(k) * X ** (e_k - sigma) / (sigma - e_k)
    return MellinSample(s=s, k=k, value=complex(value[0]), X=X,
                        tail_bound=tail + float(err[0]), method="direct")


# -- cubic decomposition ---------------------------------------------------------

def v1_series(s: complex, N: int) -> complex:
    """Partial sum of the cubic cosine series, the transform of the saddle
    series cut at N terms (CubicPrimitiveSum.transform):
    (2pi)^{1-s} sqrt(2/3) sum d_3(n) n^{-1/6-2s/3} cos(3 pi n^{2/3} + pi/8).

    The partial sums converge absolutely for Re s > 5/4.
    """
    s = complex(_finite("v1_series", s)[0])
    if N < 1:
        raise DomainError("v1_series requires N >= 1")
    return _cubic_sum(N).transform(s, N)


@functools.cache
def _cubic_sum(n: int) -> CubicPrimitiveSum:
    """S_3 over d_3(1..n): a term and its prefix sum read only d_3 up to
    its own index, so every entry has the bits of a larger table's."""
    return CubicPrimitiveSum(divisor_sieve(3, n))


@functools.cache
def residual_constant() -> float:
    """C_r with |I_3(x) - cubic sum(x)| <= C_r x^{4/5} on the desk range,
    calibrated at 1.5 * sup over anchors in [10, 2000]."""
    cache = moment_cache(3)
    cache.ensure(2000.0)
    m = (cache.edges >= 10.0) & (cache.edges <= 2000.0)
    xs = cache.edges[m]
    r = cache.values[m] - _cubic_sum(int(cutoff(3, 2000.0))).eval_many(xs)
    return 1.5 * float(np.max(np.abs(r) * xs ** (-0.8)))


@functools.cache
def _v2_grid(X: float) -> _ExpSum:
    """The engine of the integral of I_3(x) x^{-s} over [1, X]: M_3's
    band-0 engine, u and slices shared, reweighted by I_3 at the nodes from
    the cache's anchors and Z^3 rows (PanelSet.node_integrals): only a
    clipped last panel evaluates Z."""
    cache = moment_cache(3)
    panels, z3 = cache.panels(X)
    i3 = panels.node_integrals(z3, cache.values[:len(panels.lo)])
    del z3  # before the band-0 grid, which may be built here
    return _grid(3, X, 0).engine.reweighted(panels.weigh(i3))


def _v2(s: np.ndarray, X: float, v1: list | None = None) -> list:
    """V_2 at every s of a finite batch: s times the I_3 engine's sum at
    s + 1, less V_1(s, N) from v1 (formed here when v1 is None)."""
    if np.any(s.real <= 0.8):
        raise ConvergenceError("v2_residual requires Re s > 0.8")
    if not 100.0 <= X < math.inf:
        raise DomainError("v2_residual requires finite X >= 100")
    if v1 is None:
        v1 = [v1_series(x, int(cutoff(3, X))) for x in s.tolist()]
    values = _v2_grid(X).sums(s + 1.0)[0][0]
    return [x * e - a for x, e, a in zip(s.tolist(), values.tolist(), v1)]


def v2_residual(s, X: float):
    """The residual transform s * integral of (I_3 - S_3)(x) x^{-s-1} over
    [1, X] minus S_3(X) X^{-s}, S_3's frozen contribution on [X, inf): a
    complex for one s, a list for a sequence of s, from one engine call.
    S_3's part is v1_series(s, N), N = floor((X/2pi)^{3/2}), in closed
    form, so this is s times the integral of I_3 x^{-s-1} on M_3's band-0
    panels less V_1, and V_1 + V_2 matched against mellin_by_parts(3, s,
    X=X), the by-parts Z^3 quadrature on the same panels for |Im s| <= 4,
    compares two quadratures and does not see the c_n.  Regular for
    Re s > 3/4; requires Re s > 0.8."""
    out = _v2(_finite("v2_residual", s), X)
    return out if np.ndim(s) else out[0]


def m3_decomposition(s, X: float):
    """V1 + V2 against the X-truncated transform of I_3 at matched cutoffs:
    a dict for one s, a list for a sequence of s, from one engine call per
    grid and one V_1 per s.  The gap is a quadrature-consistency check: it
    compares the I_3 quadrature with the by-parts Z^3 quadrature on the
    same panels (|Im s| <= 4), and the c_n cancel (see v2_residual)."""
    sv = _finite("m3_decomposition", s)
    m3 = _truncated(3, sv, X)[0].tolist()  # first: checks X
    n_cut = int(cutoff(3, X))
    v1 = [v1_series(x, n_cut) for x in sv.tolist()]
    out = [{"s": x, "X": float(X), "N": n_cut, "v1": a, "v2": b, "sum": a + b,
            "m3": c, "gap_abs": abs(a + b - c), "gap_rel": abs(a + b - c) / abs(c)}
           for x, a, b, c in zip(sv.tolist(), v1, _v2(sv, X, v1), m3)]
    return out if np.ndim(s) else out[0]


# -- Laurent fit around s = 1 ----------------------------------------------------

def laurent_fit_at_1(samples) -> tuple[float, float, float]:
    """Least squares of value ~ c_-2 d^-2 + c_-1 d^-1 + c_0 on (d, value)
    pairs; d real in [0.02, 0.2].  FitError if the residual exceeds 10% of
    the smallest retained basis-term magnitude."""
    ds = np.array([float(d) for d, _ in samples])
    vals = np.array([complex(v).real for _, v in samples])
    ok = np.isfinite(ds) & np.isfinite(vals) & (ds > 0.0)
    if not np.all(ok) or len(set(ds.tolist())) != len(ds):
        raise DomainError("laurent_fit_at_1 needs distinct finite positive "
                          "deltas and finite values")
    A = np.stack([ds ** -2.0, ds ** -1.0, np.ones_like(ds)], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = float(np.max(np.abs(vals - A @ coef)))
    d_max = float(ds.max())
    scales = [abs(coef[0]) * d_max ** -2.0, abs(coef[1]) * d_max ** -1.0]
    floor = 0.1 * min(sc for sc in scales if sc > 0.0)
    if resid > floor:
        raise FitError(f"Laurent fit residual {resid:.3e} exceeds {floor:.3e}")
    return float(coef[0]), float(coef[1]), float(coef[2])


def laurent_samples():
    """(delta, M_2(1+delta)) pairs from the continuation path."""
    return [(d, mellin_by_parts(2, complex(1.0 + d, 0.0)).value)
            for d in (0.02, 0.03, 0.05, 0.08, 0.12, 0.2)]


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


def _report(name, lhs, rhs, certificates, params) -> IdentityReport:
    lhs, rhs = complex(lhs), complex(rhs)
    gap = abs(lhs - rhs)
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, gap_abs=gap,
                          gap_rel=gap / max(abs(lhs), 1e-300),
                          certificates=certificates, params=params)


def check_convolution(k: int, r: int, s: complex, c: float, V,
                      x_nodes: float = 2000.0):
    """M_k(s) against (1/2 pi i) * integral over Re w = c of
    M_{k-r}(w) M_r(1-w+s) dw, truncated at |Im w| = V: one report for one
    height V, a list of reports for a sequence of heights, all from one
    contour.

    The left side picks its truncation for a tail of 5e-4; contour-node
    transforms run at a fixed truncation ``x_nodes`` (their oscillatory
    tails are far below the a-priori certificates); the V-truncation of
    the contour dominates the gap.  The contour is folded
    onto Im w >= 0 as F(w) + F(conj w); for real s the two are conjugates,
    so the fold is 2 Re F(w).
    """
    s = complex(s)
    if not 1 <= r < k:
        raise DomainError("check_convolution requires 1 <= r < k")
    check_heights(0.0, V)  # before any transform
    lhs_s = mellin_by_parts(k, s, tol=5e-4)

    def F(w: np.ndarray) -> np.ndarray:
        a = mellin_by_parts_many(k - r, w, X=x_nodes)
        b = mellin_by_parts_many(r, 1.0 - w + s, X=x_nodes)
        return a * b

    folded = F if s.imag == 0.0 else lambda w: F(w) + F(w.conjugate())
    # integrand decay |w|^{-2(c - e)} per factor bound gives the truncation
    decay = c - max(_PRIM_EXP[k - r], _PRIM_EXP[r])
    reports = []
    heights = np.atleast_1d(V)
    for h, quad in zip(heights.tolist(), integrate_vertical_line(
            folded, c, 0.0, heights, max_panel=2.0)):
        rhs, quad_err = quad.value, quad.abs_err_est
        if s.imag == 0.0:
            rhs, quad_err = 2.0 * rhs.real, 2.0 * quad_err
        trunc = abs(lhs_s.value) * h ** (1.0 - 2.0 * decay) if decay > 0.5 else math.inf
        certs = {
            "lhs_tail": lhs_s.tail_bound,
            "contour_quad": quad_err,
            "contour_trunc_order": trunc,
        }
        params = {"k": k, "r": r, "s": s, "c": c, "V": h}
        reports.append(_report("convolution", lhs_s.value, rhs, certs, params))
    return reports if np.ndim(V) else reports[0]


def _fubini_rhs(k: int, s: complex, X: float) -> tuple[complex, float]:
    """The square identity's right side in the (u, v) order: the sum over
    outer nodes u of w_u Z^k(u) u^{-s} P(X/u), P(y) the integral of
    Z^k(v) v^{-s} over [1, y], both levels on the moment cache's panels.
    The estimate is the fsum of the outer panels' |K17 - G8| of
    y(u) P(X/u), y(u) = Z^k(u) u^{-s}, plus sum |w_u y(u)| times the inner
    |K17 - G8| summed through the panel of X/u (PanelSet.integrate, both)."""
    panels, zk = moment_cache(k).panels(X)
    u = panels.nodes()
    y = zk * np.exp(-s * np.log(u))
    val, err = panels.integrate(y)
    inner, idx = integrals_at(panels.lo, panels.hi, np.append(0.0, np.cumsum(val)),
                              y.reshape(-1, NODES), X / u)
    wy = panels.weights() * y
    outer_err = math.fsum(panels.integrate(y * inner)[1].tolist())
    inner_err = float(np.sum(np.abs(wy) * np.cumsum(err)[idx]))
    return complex(np.sum(wy * inner)), outer_err + inner_err


def check_square_identity(k: int, s: complex) -> IdentityReport:
    """M_k(s)^2 against 2 * integral over [1, X] of x^{-s} (inner) dx with
    inner(x) = integral of Z^k(u) Z^k(x/u) du/u over [sqrt(x), x], X = 500.

    With v = x/u that is the integral of Z^k(u) Z^k(v) (uv)^{-s} over
    uv <= X, u, v >= 1, which _fubini_rhs sums on the moment cache."""
    s, X = complex(s), 500.0
    if s.real <= 2.0:
        raise ConvergenceError("check_square_identity requires Re s > 2")
    direct = mellin_direct(k, s, X=2000.0)
    lhs = direct.value ** 2
    rhs, rhs_err = _fubini_rhs(k, s, X)
    certs = {
        "lhs_tail": 2.0 * abs(direct.value) * direct.tail_bound,
        "rhs_quad": rhs_err,
        "rhs_trunc_order": abs(lhs) * X ** (0.5 * k + 0.5 - s.real),
    }
    params = {"k": k, "s": s, "X": X}
    return _report("square", lhs, rhs, certs, params)


def truncated_inversion(k: int, x: float, c: float, U,
                        x_trunc: float | None = None):
    """(1/2 pi i) * integral of x^{s-1} M_k(s) ds over [c-iU, c+iU]: a float
    for one height U, a list for a sequence of heights, all from one contour.

    Conjugate symmetry of M_k reduces this to (1/pi) Re integral over
    [0, U]; the imaginary part is exactly zero by construction.
    """
    if c <= 1.0:
        raise ConvergenceError("truncated_inversion requires c > 1")
    if np.min(U) < 4.0 * x:
        raise DomainError("truncated_inversion requires U >= 4x")
    x_trunc = _INVERSION_X if x_trunc is None else x_trunc
    freq = max(math.log(x), 0.1) / TWO_PI

    def F(s: np.ndarray) -> np.ndarray:
        return 2.0 * (np.exp((s - 1.0) * math.log(x))
                      * mellin_by_parts_many(k, s, x_trunc)).real

    # the t-integrand is a pure tone of known frequency times a smooth
    # decaying factor: K17 takes two periods of a pure tone to within 1e-15
    # of the panel width, so panels are two periods wide from t = 0
    quads = integrate_vertical_line(F, c, 0.0, np.atleast_1d(U),
                                    max_panel=2.0 / freq)
    if any(q.abs_err_est > 5.0 * max(abs(q.value), 1.0) for q in quads):
        raise AccuracyError("inversion quadrature unstable")
    out = [float(q.value) for q in quads]
    return out if np.ndim(U) else out[0]


_LBAR_COLS = 1 << 13  # y nodes per block of _lbar_many


def _lbar_many(xs: np.ndarray, y: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """Lbar(x) for every x: the sum of zy e^{-x y} over the ascending grid y,
    by blocks of _LBAR_COLS columns through the one that ends the prefix
    y <= 745/x (past it every term underflows).  Rows go by descending prefix,
    _ELEMS // _LBAR_COLS at a time, each one only through its own blocks."""
    width = np.searchsorted(y, 745.0 / xs, side="right")
    order = np.argsort(-width, kind="stable")
    out = np.zeros(len(xs))
    for i in range(0, len(order), _ELEMS // _LBAR_COLS):
        rows = order[i:i + _ELEMS // _LBAR_COLS]
        for j in range(0, int(width[rows[0]]), _LBAR_COLS):
            rows = rows[width[rows] > j]
            e = np.multiply.outer(-xs[rows], y[j:j + _LBAR_COLS])
            np.exp(e, out=e)
            e *= zy[j:j + _LBAR_COLS]
            out[rows] += e.sum(axis=1)
    return out


def laplace_consistency(s):
    """integral over x of Lbar(x) x^{s-1}, Lbar(x) = integral of Z(y) e^{-xy}
    over [1, inf), against M_1(s) Gamma(s): one report for one s, a list for
    a sequence, from one _lbar_many pass (README, Numerical notes).

    tol = 1e-5 sets the lower cut x_lo, whose dropped mass it bounds, and,
    through mellin_by_parts_samples, the right side's truncation X.  The
    y-cut Y is 2e4, so the certificates can sum to more than tol: at
    sigma = 1.5, inner_trunc is 8.1e-5 and mellin_tail 1.39e-4, a sum about
    23 times tol."""
    sv = _finite("laplace_consistency", s)
    if not np.all((1.0 < sv.real) & (sv.real < 3.0)):
        raise DomainError("laplace_consistency requires 1 < Re s < 3")
    c1, g94, X, Y = primitive_constant(1), 1.1330030963963883, 50.0, 2.0e4
    tol = 1e-5
    # |Lbar(x)| <= C_1 Gamma(5/4) x^{-1/4}, and g94 = Gamma(9/4) > Gamma(5/4):
    # the lower cut keeps the dropped mass under tol
    x_lo = [(tol * (g - 0.25) / (c1 * g94)) ** (1.0 / (g - 0.25))
            for g in sv.real.tolist()]
    if not all(0.0 < x < X for x in x_lo):
        raise DomainError(f"laplace_consistency requires 0 < x_lo < {X}")
    # 0.5-wide panels [e_i, e_{i-1}] down from e_0 = ln X: grid row j < len(sv)
    # is s_j's [cut, e_m], and row len(sv) - 1 + i is panel i, i = 1, ..., m
    cuts = np.log(x_lo)
    e = math.log(X) - 0.5 * np.arange(int((math.log(X) - cuts.min()) / 0.5) + 2)
    m = [int(np.count_nonzero(e[1:] >= c)) for c in cuts.tolist()]
    grid = PanelSet(np.append(cuts, e[1:max(m) + 1]), np.append(e[m], e[:max(m)]))
    yp, z = moment_cache(1).panels(Y)  # the y-grid: the k = 1 walk on [1, Y]
    lbar = _lbar_many(np.exp(grid.nodes()), yp.nodes(), yp.weigh(z))
    reports = []
    for i, r in enumerate(mellin_by_parts_samples(1, sv, tol)):
        rows = np.append(i, len(sv) - 1 + np.arange(m[i], 0, -1))  # ascending
        panels = PanelSet(grid.lo[rows], grid.hi[rows])
        f = lbar.reshape(-1, NODES)[rows].ravel() * np.exp(r.s * panels.nodes())
        (vals, err), g, gamma_s = panels.integrate(f), r.s.real, gamma_complex(r.s)
        certs = {  # upper_cut and inner_trunc: README, Numerical notes
            "outer_quad": math.fsum(err.tolist()),
            "lower_cut": c1 * g94 * x_lo[i] ** (g - 0.25) / (g - 0.25),
            "upper_cut": (0.74 + 7.0 * c1 * X * math.exp(-2.0 * X))
            * X ** (g - 2.0) * math.exp(-X) / (1.0 - max(g - 2.0, 0.0) / X),
            "mellin_tail": r.tail_bound * abs(gamma_s),
            "inner_trunc": c1 * math.gamma(g) * Y ** (0.25 - g) * (1 + g / (g - 0.25)),
        }
        reports.append(_report("laplace", np.sum(vals), r.value * gamma_s, certs,
                               {"s": r.s, "x_lo": x_lo[i], "x_hi": X, "y_max": Y}))
    return reports if np.ndim(s) else reports[0]
