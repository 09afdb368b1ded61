"""Verification suites: every transform identity and asymptotic property
the package claims, each reduced to a pass/fail check with an explicit
tolerance.  ``run(["all"])`` returns a machine-readable bundle; the CLI
turns failures into exit status 1.

Bundle contents are deterministic for a fixed seed/config (no timestamps,
fixed evaluation order), so two runs can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mellin as ML
from .arith import divisor_brute, divisor_sieve
from .config import RunConfig, DEFAULTS
from .explicit import CubicPrimitiveSum, moment_main_term
from .hardy import z_oracle, z_oracle_many, z_rs_many
from .moments import moment_cache
from .special import chi, theta_batch, zeta_euler_maclaurin


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    limit: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed,
               "value": self.value, "limit": self.limit}
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def _check(name: str, value: float, limit: float, **detail) -> Check:
    return Check(name=name, passed=bool(value <= limit), value=float(value),
                 limit=float(limit), detail=detail)


# -- suites ---------------------------------------------------------------------

def suite_functional_equation(cfg: RunConfig) -> list[Check]:
    rng = np.random.default_rng(cfg.seed)
    # chi(s) chi(1-s) = 1 on a 100-point grid
    sig = 0.1 + 0.8 * rng.random(100)
    s_a = sig + 1j * (1.0 + 499.0 * rng.random(100))
    # zeta(s) = chi(s) zeta(1-s) on a 100-point grid
    sig = -1.0 + 4.0 * rng.random(100)
    s_b = sig + 1j * (2.0 + 498.0 * rng.random(100))
    # |chi(1/2+it)| = 1 and chi = exp(-2 i theta)
    ts = np.geomspace(10.0, 1e4, 60)
    # one call per function: a value has the same bits in any batch, and s
    # and 1 - s share their truncation
    ca, ca1, cb, cs = np.split(
        chi(np.concatenate([s_a, 1.0 - s_a, s_b, 0.5 + 1j * ts])),
        [100, 200, 300])
    z1, z2 = np.split(zeta_euler_maclaurin(np.concatenate([s_b, 1.0 - s_b])), 2)
    w1 = np.max(np.abs(np.abs(cs) - 1.0))
    w2 = np.max(np.abs(cs - np.exp(-2j * theta_batch(ts))))
    return [
        _check("chi-product", np.max(np.abs(ca * ca1 - 1.0)), 1e-9),
        _check("zeta-functional-equation",
               np.max(np.abs(z1 - cb * z2) / np.abs(z1)), 1e-8),
        _check("chi-modulus-critical-line", w1, 1e-9),
        _check("chi-theta-phase", w2, 1e-8),
    ]


def suite_z_agreement(cfg: RunConfig) -> list[Check]:
    ts = np.array([50.0, 100.0, 500.0, 1000.0, 5000.0])
    rs = z_rs_many(ts, 3)
    oracle = z_oracle_many(ts)
    errs = np.abs(rs - oracle)
    checks = [_check("z-rs-vs-oracle", float(errs.max()), 1e-3,
                     errors={f"t={t:g}": float(e) for t, e in zip(ts, errs)})]
    slope = np.polyfit(np.log(ts), np.log(np.maximum(errs, 1e-300)), 1)[0]
    checks.append(_check("z-error-slope", float(slope), -1.8))
    return checks


def _self_fitted(prefix: str, xs, resid, exponent: float) -> list[Check]:
    # c = r / x^e fitted at the first point; the limit at every later point
    # is 3 c x^e.  xs and resid are Python floats, so the powers are libm's
    c_fit = resid[0] / xs[0] ** exponent
    return [_check(f"{prefix}{x:g}", r, 3.0 * c_fit * x ** exponent,
                   fitted_constant=c_fit) for x, r in zip(xs[1:], resid[1:])]


def _dyadic_residuals(k: int, exponent: float, table) -> list[Check]:
    # I_k(2T) - I_k(T) from the cache, which reads the one Z walk
    Ts = (100.0, 200.0, 500.0, 1000.0)
    ik = moment_cache(k).eval_many(np.array([*Ts, *(2.0 * T for T in Ts)]))
    resid = [abs(hi - lo - moment_main_term(k, T, table).value)
             for T, lo, hi in zip(Ts, ik[:4].tolist(), ik[4:].tolist())]
    return _self_fitted(f"cosine-sum-residual-k{k}-T", Ts, resid, exponent)


def suite_dyadic_square(cfg: RunConfig) -> list[Check]:
    return _dyadic_residuals(2, 0.55, divisor_sieve(2, 1000))


def suite_dyadic_odd(cfg: RunConfig) -> list[Check]:
    out = _dyadic_residuals(1, 0.30, divisor_sieve(1, 64))
    out += _dyadic_residuals(3, 0.80, divisor_sieve(3, 6000))
    return out


def suite_cubic_primitive(cfg: RunConfig) -> list[Check]:
    xs = np.array([200.0, 500.0, 1000.0, 2000.0])
    cube = CubicPrimitiveSum(divisor_sieve(3, 6000))
    r = np.abs(moment_cache(3).eval_many(xs) - cube.eval_many(xs)).tolist()
    return _self_fitted("cubic-primitive-residual-x", xs.tolist(), r, 0.8)


def suite_primitive_scaling(cfg: RunConfig) -> list[Check]:
    cache = moment_cache(1)
    cache.ensure(1e4)
    lo = cache.sup_scaled(0.25, 100.0, 1000.0)
    hi = cache.sup_scaled(0.25, 1000.0, 1e4)
    ratio = max(hi / lo, lo / hi)
    checks = [_check("primitive-quarter-power-ratio", ratio, 3.0,
                     sup_low_window=lo, sup_high_window=hi)]
    m = (cache.edges >= 100.0) & (cache.edges <= 1000.0)
    vals = cache.values[m]
    n_changes = int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))
    checks.append(Check(name="primitive-sign-changes", passed=n_changes >= 1,
                        value=float(n_changes), limit=1.0))
    return checks


def suite_laurent(cfg: RunConfig) -> list[Check]:
    c2, c1, c0 = ML.laurent_fit_at_1(ML.laurent_samples())
    return [
        Check(name="laurent-leading", passed=0.95 <= c2 <= 1.05,
              value=c2, limit=1.05),
        Check(name="laurent-subleading", passed=-0.705 <= c1 <= -0.663,
              value=c1, limit=-0.663, detail={"target": -0.6834457366062797}),
    ]


def suite_identities(cfg: RunConfig) -> list[Check]:
    checks = []
    sq = ML.check_square_identity(1, 3.0 + 0j)
    checks.append(_check("square-identity", sq.gap_rel, 1e-3))
    conv1, conv2 = ML.check_convolution(3, 1, 3.5 + 0j, 2.0, (200.0, 400.0))
    checks.append(_check("convolution", conv1.gap_rel, 5e-2))
    checks.append(_check("convolution-taller-contour", conv2.gap_rel,
                         conv1.gap_rel, shorter_contour_gap=conv1.gap_rel))
    for lap in ML.laplace_consistency((1.5, 2.0, 2.5)):
        checks.append(_check(f"laplace-s{lap.params['s'].real:g}", lap.gap_rel, 1e-3))
    # inversion error trend over U at c = 2 (the criterion leaves c free;
    # larger c gives faster contour decay, see notes in mellin module)
    z10 = z_oracle(10.0)
    errs = [abs(v - z10) for v in ML.truncated_inversion(
        1, 10.0, 2.0, (50.0, 100.0, 200.0, 400.0), x_trunc=4000.0)]
    inversions = [errs[i + 1] / errs[i] for i in range(3) if errs[i + 1] > errs[i]]
    ok = len(inversions) <= 1 and all(r <= 1.2 for r in inversions)
    checks.append(Check(name="inversion-error-trend", passed=ok,
                        value=float(max(inversions, default=1.0)), limit=1.2,
                        detail={f"U={U:g}": e for U, e in
                                zip((50, 100, 200, 400), errs)}))
    return checks


def suite_series_decomposition(cfg: RunConfig) -> list[Check]:
    s = (2.0 + 0j, 2.5 + 0j, 1.6 + 1j)
    decomp = ML.m3_decomposition(s, 1000.0, divisor_sieve(3, 20000))
    return [_check(f"series-decomposition-s{d['s'].real:g}{d['s'].imag:+g}j",
                   d["gap_rel"], 1e-5) for d in decomp]


def suite_divisor_oracle(cfg: RunConfig) -> list[Check]:
    ks = (2, 3, 4)
    n = np.arange(1, 10_001)
    out = []
    for k, brute in zip(ks, divisor_brute(ks, n)):
        bad = int(np.count_nonzero(divisor_sieve(k, 10_000).counts[n] != brute))
        out.append(Check(name=f"divisor-sieve-vs-brute-k{k}", passed=bad == 0,
                         value=float(bad), limit=0.0))
    return out


_SUITE_FUNCS = {
    "functional-equation": suite_functional_equation,
    "z-agreement": suite_z_agreement,
    "dyadic-square": suite_dyadic_square,
    "dyadic-odd": suite_dyadic_odd,
    "cubic-primitive": suite_cubic_primitive,
    "primitive-scaling": suite_primitive_scaling,
    "laurent": suite_laurent,
    "identities": suite_identities,
    "series-decomposition": suite_series_decomposition,
    "divisor-oracle": suite_divisor_oracle,
}
SUITES = tuple(_SUITE_FUNCS)


def run(names, cfg: RunConfig | None = None) -> dict:
    """Run the named suites ('all' expands to every suite) and return the
    report bundle."""
    cfg = cfg or DEFAULTS
    unknown = [n for n in names if n != "all" and n not in _SUITE_FUNCS]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    if "all" in names:
        names = list(SUITES)
    suites = {}
    for name in names:
        checks = _SUITE_FUNCS[name](cfg)
        suites[name] = {
            "pass": all(c.passed for c in checks),
            "checks": [c.as_dict() for c in checks],
        }
    return {
        "seed": cfg.seed,
        "suites": suites,
        "pass": all(s["pass"] for s in suites.values()),
    }
