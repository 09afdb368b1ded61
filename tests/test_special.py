"""Gamma, chi, theta, and the Euler-Maclaurin zeta oracle.

Frozen reference values were computed independently at 30 digits
(scripts/gen_oracle_values.py regenerates them).
"""

import cmath
import math

import numpy as np
import pytest

from hardylab.errors import AccuracyError, DomainError, PoleError
from hardylab.special import (_THETA_TAIL, chi, gamma_complex, loggamma,
                              theta_batch, theta_many, zeta_euler_maclaurin,
                              zeta_half_batch)

SQRT_PI = 1.7724538509055160273
GAMMA_2P5_3J = complex(-0.21811897108112289748, 0.07203476340717503356)
GAMMA_M1P5_0P5J = complex(0.93791666278788505097, 0.34920566814780486859)
ZETA_2 = 1.6449340668482264365
ZETA_HALF = -1.4603545088095868129
ZETA_HALF_25J = complex(0.0049845933640356753834, -0.014012301962583382963)
CHI_2 = -19.739208802178717238  # = -2*pi^2
THETA_ZERO = 17.845599540410860817
# either side of |s| = 20 (Gamma) and of |s/2| = 20 (chi), and near the origin
GAMMA_19P5_2J = complex(23081720498570849.5097962403567,
                        -9498592859253948.38980552215477)
GAMMA_20P5_1J = complex(-521725141236546743.970214703153,
                        76366089275211133.5792908282933)
GAMMA_0P7_0P1J = complex(1.27057820492785197874140803518,
                         -0.154419573269275715060945822162)
CHI_0P3_15J = complex(-1.09131646589083538167466422774,
                      0.474626711765117846167323241111)
CHI_39P5_2J = complex(-1.28695727815120005165451431169e-16,
                      4.53422252546206574037840643797e-16)
CHI_41_2J = complex(-1.63844284430128899858191272405e-17,
                    -2.46771672985525416588939970452e-17)
# inside the reflection strip Re z <= 0, |Im z| <= 5 (for chi, at (1-s)/2 or
# s/2), and left of it at |Im z| > 5, where loggamma's recurrence serves
CHI_M0P7_3J = complex(0.421879206614314791588518412603,
                      -0.0244762246585717293489199575465)
CHI_2P5_4J = complex(1.62778761755972904950987404274,
                     1.61421088061764397614755072829)
GAMMA_M3P3_4P8J = complex(-2.48338977601967652895566610088e-7,
                          2.44545139648216743314491691026e-6)
GAMMA_M0P5_M2J = complex(-0.0390388491621155187921551212599,
                         0.0351678760626869382090851261578)
GAMMA_M7P5_6J = complex(2.1369916587952281439113139182e-11,
                        9.02615349483595422873066688266e-12)


def test_gamma_basic_values():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complex(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_complex(0.5) == pytest.approx(SQRT_PI, rel=1e-12)


def test_gamma_complex_frozen_points():
    assert abs(gamma_complex(2.5 + 3j) - GAMMA_2P5_3J) < 1e-13 * abs(GAMMA_2P5_3J)
    assert abs(gamma_complex(-1.5 + 0.5j) - GAMMA_M1P5_0P5J) \
        < 1e-12 * abs(GAMMA_M1P5_0P5J)


@pytest.mark.parametrize("s,ref", [(19.5 + 2j, GAMMA_19P5_2J),
                                   (20.5 + 1j, GAMMA_20P5_1J),
                                   (0.7 + 0.1j, GAMMA_0P7_0P1J)])
def test_gamma_frozen_across_old_switch(s, ref):
    assert abs(gamma_complex(s) - ref) <= 5e-14 * abs(ref)


@pytest.mark.parametrize("s,ref", [(-3.3 + 4.8j, GAMMA_M3P3_4P8J),
                                   (-0.5 - 2j, GAMMA_M0P5_M2J),
                                   (-7.5 + 6j, GAMMA_M7P5_6J)])
def test_gamma_frozen_left_half_plane(s, ref):
    assert abs(gamma_complex(s) - ref) <= 5e-14 * abs(ref)


@pytest.mark.parametrize("s,ref", [(0.3 + 15j, CHI_0P3_15J),
                                   (39.5 + 2j, CHI_39P5_2J),
                                   (41.0 + 2j, CHI_41_2J),
                                   (-0.7 + 3j, CHI_M0P7_3J),
                                   (2.5 + 4j, CHI_2P5_4J)])
def test_chi_frozen_points(s, ref):
    assert abs(chi(s) - ref) <= 5e-14 * abs(ref)


def test_gamma_and_chi_array_equal_scalar_calls():
    # reflected points, both sides of |Im s| = 10 (|Im s/2| = 5 for chi),
    # both half-planes, pairs s, 1 - s as the functional-equation suite
    # asks for them, and last the zero of chi (a pole of Gamma) at s = -2
    pairs = np.array([-0.7 + 3j, 0.3 + 9.9j, 0.3 + 10.1j, -4.5 - 10.5j])
    s = np.array([*pairs, 2.5 + 4j, -3.3 + 4.8j, 0.5 + 30j, 39.5 + 2j,
                  12.5 - 40j, *(1.0 - pairs), -2.0 + 0j])
    for f, pts in ((chi, s), (gamma_complex, s[:-1])):
        vals = f(pts)
        assert vals.shape == pts.shape
        for si, v in zip(pts, vals):
            scalar = f(complex(si))
            assert type(scalar) is complex
            assert v == scalar  # bit for bit
    assert chi(-2.0) == 0.0
    with pytest.raises(PoleError):
        chi(np.array([0.5 + 1j, 3.0 + 0j, 2.0 + 0j]))
    with pytest.raises(PoleError):
        gamma_complex(np.array([0.5 + 1j, -2.0 + 0j]))


def test_gamma_poles():
    for s in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_complex(s)


def test_gamma_recurrence_random(rng):
    # Gamma(s+1) = s Gamma(s) on random complex s, |s| <= 100
    for _ in range(300):
        s = complex(rng.uniform(-50, 50), rng.uniform(-80, 80))
        if abs(s.imag) < 0.5 and abs(s - round(s.real)) < 0.1:
            continue
        lhs = gamma_complex(s + 1.0)
        rhs = s * gamma_complex(s)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_loggamma_matches_gamma():
    for z in (3.0 + 0j, 0.7 + 9j, 12.5 - 40j):
        assert abs(cmath.exp(loggamma(z)) - gamma_complex(z)) \
            <= 1e-12 * abs(gamma_complex(z))


def test_loggamma_array_equals_scalar_calls():
    # no shift (|z| >= 24), shifted, and Re z <= 0 with |Im z| > 5
    z = np.array([30.0 + 2j, 24.5 - 1j, 0.3 + 0.2j, 3.0 + 0j, 7.5 - 12j,
                  -4.0 + 5.5j, -20.0 - 8j, -0.5 + 30j])
    vals = loggamma(z)
    assert vals.shape == z.shape
    for zi, v in zip(z, vals):
        scalar = loggamma(complex(zi))
        assert type(scalar) is complex
        assert v == scalar  # bit for bit


def test_loggamma_array_with_unsupported_point():
    with pytest.raises(DomainError):
        loggamma(np.array([1.0 + 1j, -2.0 + 1j, 5.0 + 0j]))


def test_chi_fixed_point_half():
    assert abs(chi(0.5 + 0j) - 1.0) < 1e-14


def test_chi_modulus_on_critical_line():
    assert abs(abs(chi(0.5 + 30j)) - 1.0) < 1e-12


def test_chi_product_at_2():
    assert abs(chi(2.0 + 0j) * chi(-1.0 + 0j) - 1.0) < 1e-10
    assert chi(2.0 + 0j).real == pytest.approx(CHI_2, rel=1e-12)


def test_chi_sin_product_form_equivalence():
    # 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) at generic points
    for s in (0.3 + 2j, 0.8 - 5j, 2.5 + 0j, -0.4 + 1j):
        ref = 2.0 ** s * math.pi ** (s - 1) * cmath.sin(math.pi * s / 2.0) \
            * gamma_complex(1.0 - s)
        assert abs(chi(s) - ref) <= 1e-11 * abs(ref)


def test_chi_product_random(rng):
    worst = 0.0
    for _ in range(1000):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(1.0, 500.0))
        worst = max(worst, abs(chi(s) * chi(1.0 - s) - 1.0))
    assert worst <= 1e-9


def test_chi_pole():
    with pytest.raises(PoleError):
        chi(3.0 + 0j)
    with pytest.raises(PoleError):
        chi(1.0 + 0j)


def theta(t: float) -> float:
    return float(theta_batch(np.array([t]))[0])


def test_theta_zero_at_origin():
    assert theta(0.0) == 0.0


def test_theta_domain():
    with pytest.raises(DomainError):
        theta(-1.0)
    with pytest.raises(DomainError):
        theta_batch(-1.0)


def test_theta_asymptotic_orders():
    # base 3-term asymptotic misses by ~1/(48 t); adding it leaves < 1e-8
    t = 100.0
    base = 0.5 * t * math.log(0.5 * t / math.pi) - 0.5 * t - math.pi / 8.0
    full = theta(t)
    assert abs(full - base) < 2.1e-3
    assert abs(full - base - 1.0 / (48.0 * t)) < 1e-8


def test_theta_first_positive_zero():
    # bisection on the implemented theta
    lo, hi = 17.0, 18.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if theta(lo) * theta(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - THETA_ZERO) < 1e-8


def test_theta_branch_continuity_at_switch():
    # arg-Gamma route below 10 meets the asymptotic branch above
    assert abs(theta(9.999999) - theta(10.0)) < 1e-5


def test_theta_phase_matches_chi():
    for t in (10.0, 50.0, 1234.5, 1e4):
        want = cmath.exp(-2j * theta(t))
        assert abs(chi(complex(0.5, t)) - want) <= 1e-8


def _theta_formula(t):
    # theta_many's former one-line form, the bit-exact reference for its
    # in-place arithmetic
    base = 0.5 * t * np.log(0.5 * t / math.pi) - 0.5 * t - math.pi / 8.0
    u = 1.0 / t
    u2 = u * u
    tail = np.zeros_like(t)
    for c in reversed(_THETA_TAIL):
        tail = tail * u2 + c
    return base + tail * u


def test_theta_many_in_place_keeps_the_formula_bits():
    t = np.concatenate([
        10.0 ** np.random.default_rng(17).uniform(1.0, 12.0, 20000),
        [10.0, np.nextafter(10.0, 11.0), 1e154, 1e300]])
    assert np.array_equal(theta_many(t), _theta_formula(t))
    one = theta_many(np.float64(1234.5))
    assert one.shape == () and one == _theta_formula(np.array([1234.5]))[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_theta_rejects_non_finite(bad):
    for fn in (theta_many, theta_batch):
        with pytest.raises(DomainError):
            fn(np.array([20.0, bad, 5.0]))


def test_theta_batch_matches_scalar():
    ts = np.array([0.5, 3.0, 9.0, 15.0, 120.0])
    vb = theta_batch(ts)
    for t, v in zip(ts, vb):
        assert v == pytest.approx(theta(float(t)), abs=1e-12)


def test_zeta_at_2():
    assert zeta_euler_maclaurin(2.0 + 0j).real == pytest.approx(ZETA_2, rel=1e-12)


def test_zeta_at_0():
    # continuation value
    assert zeta_euler_maclaurin(0.0 + 0j).real \
        == pytest.approx(-0.5, abs=1e-12)


def test_zeta_at_half():
    v = zeta_euler_maclaurin(0.5 + 0j)
    assert v.real == pytest.approx(ZETA_HALF, rel=1e-12)
    assert abs(v.imag) < 1e-14


def test_zeta_complex_frozen():
    v = zeta_euler_maclaurin(0.5 + 25j)
    assert abs(v - ZETA_HALF_25J) < 1e-12


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta_euler_maclaurin(1.0 + 0j)


def test_zeta_accuracy_error_when_underresolved():
    # far left of the strip the truncation max(50, ceil(1.3|Im s|)) is too
    # short for the remainder bound, and further left the bound does not
    # exist
    with pytest.raises(AccuracyError, match="remainder .* exceeds tol"):
        zeta_euler_maclaurin(-20.0 + 1000j)
    with pytest.raises(AccuracyError, match="sigma too negative"):
        zeta_euler_maclaurin(-30.0 + 0j)


def test_zeta_functional_equation_grid(rng):
    worst = 0.0
    for _ in range(40):
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(2.0, 500.0))
        z1 = zeta_euler_maclaurin(s)
        z2 = zeta_euler_maclaurin(1.0 - s)
        worst = max(worst, abs(z1 - chi(s) * z2) / abs(z1))
    assert worst <= 1e-8


def test_zeta_half_batch_matches_scalar():
    # a point's zeta is the same bits alone and in batches of mixed sigma
    # and t, whose rows have different truncations (and, near t = 4e4,
    # share a length across several blocks)
    s = np.concatenate([
        [0.5, 0.5 + 5j, 2.0 + 14.1j, -0.7 + 77.7j, 0.5 - 40j, 2.5 + 300j],
        0.5 + 1j * np.linspace(41000.0, 41000.5, 12)])
    vb = zeta_euler_maclaurin(s)
    assert vb.shape == s.shape
    for x, v in zip(s, vb):
        assert zeta_euler_maclaurin(complex(x)) == v
    assert np.array_equal(zeta_euler_maclaurin(s[::-1]), vb[::-1])
    # rows s and 1 - s share a truncation and come from one call
    pairs = np.concatenate([s, 1.0 - s])
    for x, v in zip(pairs, zeta_euler_maclaurin(pairs)):
        assert zeta_euler_maclaurin(complex(x)) == v
    half = s.real == 0.5
    assert np.array_equal(zeta_half_batch(s.imag[half]), vb[half])


def test_zeta_truncation_capped():
    # a row of more than 2^18 terms is refused before anything is allocated
    with pytest.raises(DomainError):
        zeta_euler_maclaurin(0.5 + 2.02e5j)


@pytest.mark.parametrize("s", [complex("nan"), complex(math.inf, 1.0),
                               complex(0.5, math.inf)])
def test_zeta_non_finite_s_rejected(s):
    with pytest.raises(DomainError, match="finite"):
        zeta_euler_maclaurin(s)


def test_zeta_batch_errors_name_the_bad_row():
    good = np.array([0.5 + 10j, 2.0 + 3j])
    zeta_euler_maclaurin(good)
    # one row too far left for its truncation fails the whole call
    with pytest.raises(AccuracyError, match=r"-20\+1000j"):
        zeta_euler_maclaurin(np.append(good, -20.0 + 1000j))
    with pytest.raises(PoleError):
        zeta_euler_maclaurin(np.append(good, 1.0))
