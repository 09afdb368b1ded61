"""Z evaluation: Riemann-Siegel fast path against the Euler-Maclaurin oracle."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hardylab import hardy
from hardylab._psi_tables import PSI_ORDER, PSI_PIECES
from hardylab.errors import DomainError
from hardylab.hardy import (N_MULT, Z_TOP, z_breakpoints, z_err_est,
                            z_eval_many,
                            z_oracle, z_oracle_many, z_rs, z_rs_many,
                            _BLOCK, _C_DEGREE, _C_TABLE, _LOW_ERR,
                            _PIECE_CENTERS, _PSI_TAYLOR, _RS_ERR_C,
                            _cis_leaf, _cis_of_quarter,
                            _fold_correction_tables, _horner, _main_mult,
                            _remainder_rows)
from hardylab.moments import hardy_moment
from hardylab.special import theta_many

ZETA_HALF = -1.4603545088095868129
FIRST_ZERO = 14.134725141734693790
Z_10 = -1.5491945461810223891   # frozen 30-digit reference
Z_100 = 2.6926970566644634750
# frozen 30-digit mpmath siegelz (scripts/gen_oracle_values.py)
Z_HIGH = {
    1000.5: 2.54926113555555556426309925732,
    2345.25: -1.9265448416384183069398224883,
    3841.0: -1.83543316444451523663555232714,
    8832.0: 0.288698135347530325449595583595,
    17000.75: 1.77873819401081765869900420844,
    29000.5: -0.646721672131057676592402664263,
    41101.0: -1.15251064966586318824626705941,
    48888.0: 2.41811555266308309215823900581,
}
# 40 log-spaced heights over [10, 4e5], frozen 30-digit mpmath siegelz
# (scripts/gen_oracle_values.py): the Riemann-Siegel kernel's references
Z_RS_REF = {
    10.0: -1.54919454618102238908521730186,
    13.12: -0.71949024429270292775327913147,
    17.22: 2.22689362506468636747042805957,
    22.59: -1.3499309062618410508315833358,
    29.65: 1.11753029195925792827462708305,
    38.91: -1.75427235484279883461397224152,
    51.05: -1.84086972159074104996557075074,
    66.99: 0.158378713311561471213123367826,
    87.9: -0.642591074020873275660487304609,
    115.3: -1.613245877896492327561499283,
    151.4: -0.961368404160955990273623404609,
    198.6: 2.56416671768425242441884364717,
    260.6: -0.410261473961437162483282537065,
    342.0: -0.171641233200269143050723785137,
    448.8: -0.883258874824475800711511424106,
    588.9: 6.21386004375163590226142654566,
    772.7: 1.57759642190679731947357707371,
    1014.0: -3.53229672797652185132276563732,
    1331.0: -3.09590119574010870731932960153,
    1746.0: -0.272191200374087599693544701566,
    2291.0: 0.335553638269963429536017158614,
    3006.0: 1.02744723326894461476894546353,
    3945.0: -0.942728896073222261972377756868,
    5176.0: -13.7617480083300718463598819169,
    6793.0: -0.355064933849750886346476620215,
    8913.0: 0.758362789974577026283079778387,
    11700.0: -1.48126865843834952921268233959,
    15350.0: -3.80035600768813257912483104064,
    20140.0: 0.796296114271590192921882598417,
    26430.0: 0.732222615820785006850214262454,
    34680.0: -3.08868772774531054375665977774,
    45500.0: 0.0484042271875730817871235843443,
    59710.0: -3.16275088496018213207269255083,
    78350.0: -0.399271019785729794045415102302,
    102800.0: -0.242488737728736684498913171052,
    134900.0: -2.23699824506885947375705372063,
    177000.0: 1.89046583458810805659951629834,
    232300.0: -0.0626765806279520475989171822499,
    304800.0: 1.48815884325753896208097380527,
    400000.0: -5.04063024456838006529136911189,
}


def _rounding_floor(t):
    # each of the N main-sum phases t ln n carries up to t ln N eps of
    # rounding, weighted by 2 / sqrt(n): the sum stays below
    # 4 sqrt(N) t ln N eps (the benchmark's limit past the stated error)
    n = np.maximum(np.floor(np.sqrt(t / (2 * math.pi))), 2.0)
    return 4.0 * np.sqrt(n) * t * np.log(n) * np.finfo(float).eps


def test_oracle_at_origin():
    assert z_oracle(0.0) == pytest.approx(ZETA_HALF, rel=1e-12)


def test_oracle_frozen_values():
    assert z_oracle(10.0) == pytest.approx(Z_10, rel=1e-12)
    assert z_oracle(100.0) == pytest.approx(Z_100, rel=1e-12)


def test_oracle_stated_accuracy_up_to_5e4():
    # the oracle within 1e-11 of mpmath, batched or alone
    ts = np.array(list(Z_HIGH))
    ref = np.array(list(Z_HIGH.values()))
    assert np.max(np.abs(z_oracle_many(ts) - ref)) <= 1e-11
    for t, z in Z_HIGH.items():
        assert abs(z_oracle_many(np.array([t]))[0] - z) <= 1e-11
        assert abs(z_oracle(t) - z) <= 1e-11


def test_oracle_value_does_not_depend_on_batch():
    # heights either side of t = 10 and above 4e4, with different
    # truncations, give the same bits alone and in any mixed batch
    ts = np.array([0.0, 3.3, 9.99, 10.0, 10.01, 77.0, 4000.5, 41101.0,
                   48888.0, 10.0])
    vals = z_oracle_many(ts)
    for t, v in zip(ts, vals):
        assert z_oracle(t) == v
    perm = np.random.default_rng(3).permutation(len(ts))
    assert np.array_equal(z_oracle_many(ts[perm]), vals[perm])


def test_low_table_matches_frozen_mpmath():
    # t and 30-digit siegelz(t) at 201 off-node heights, one pair a line
    # (scripts/gen_z_low_table.py)
    text = (Path(__file__).parent / "z_low_check.txt").read_text()
    t, ref = np.array(text.split(), dtype=float).reshape(-1, 2).T
    assert len(t) >= 200
    assert t[0] == 0.0 and t[-1] == np.nextafter(10.0, 0.0)
    assert np.max(np.abs(z_eval_many(t) - ref)) <= _LOW_ERR
    assert np.all(z_err_est(t) == _LOW_ERR)


def test_negative_heights_rejected():
    with pytest.raises(DomainError):
        z_eval_many(np.array([5.0, -1e-300, 50.0]))


def test_oracle_modulus_identity():
    # |Z(t)| = |zeta(1/2+it)|
    from hardylab.special import zeta_euler_maclaurin
    z = z_oracle(10.0)
    zeta = zeta_euler_maclaurin(0.5 + 10j)
    assert abs(abs(z) - abs(zeta)) < 1e-9


def test_oracle_single_sign_before_first_zero():
    ts = np.arange(0.0, 14.0, 0.25)
    vals = z_oracle_many(ts)
    assert np.all(vals < 0.0)


def test_evenness_via_conjugation():
    # Z(-t) = Z(t): via theta(-t) = -theta(t) the product conjugates, so
    # the real part is unchanged; check through the modulus identity
    from hardylab.special import zeta_euler_maclaurin
    for t in (5.0, 25.0):
        z_pos = z_oracle(t)
        zeta_neg = zeta_euler_maclaurin(complex(0.5, -t))
        assert abs(abs(z_pos) - abs(zeta_neg)) < 1e-10


def test_rs_domain():
    with pytest.raises(DomainError):
        z_rs(9.0)
    with pytest.raises(DomainError):
        z_rs_many(np.array([50.0]), corrections=5)


def test_heights_above_the_row_cap_rejected():
    # Riemann-Siegel up to t = 2 pi (N_MULT + 1)^2 = 1.65e6, where the main
    # sum passes 512 terms; the oracle up to t = 2^18 / 1.3 = 2.0e5, where an
    # Euler-Maclaurin row passes 2^18 terms
    for t in (2e6, 4.3e11):
        with pytest.raises(DomainError):
            z_rs(t)
    for fn, t in ((z_rs_many, 1e13), (z_eval_many, 4.32e11),
                  (z_oracle_many, 4e5), (z_oracle_many, 2.02e5)):
        with pytest.raises(DomainError):
            fn(np.array([t]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_heights_rejected(bad):
    t = np.array([50.0, bad, 120.0])
    for fn in (z_rs_many, z_eval_many, z_oracle_many):
        with pytest.raises(DomainError):
            fn(t)


def test_rs_first_zero():
    assert abs(z_rs(FIRST_ZERO, 3).value) < 1e-3


def test_rs_matches_oracle_at_100():
    assert abs(z_rs(100.0, 2).value - z_oracle(100.0)) < 5e-4


def test_rs_corrections_shrink_error():
    t = 1000.0
    ref = z_oracle(t)
    e0 = abs(z_rs(t, 0).value - ref)
    e2 = abs(z_rs(t, 2).value - ref)
    assert e0 / e2 >= 10.0


def test_rs_agreement_law_and_slope():
    ts = np.array([50.0, 100.0, 500.0, 1000.0, 5000.0])
    errs = np.abs(z_rs_many(ts, 3) - z_oracle_many(ts))
    assert errs.max() <= 1e-3
    slope = np.polyfit(np.log(ts), np.log(np.maximum(errs, 1e-300)), 1)[0]
    assert slope <= -1.8


def test_rs_err_est_bounds_true_error():
    for t in (50.0, 200.0, 1234.0):
        ref = z_oracle(t)
        for k in range(5):
            s = z_rs(t, k)
            assert abs(s.value - ref) <= s.err_est + 1e-9
            assert s.err_est == pytest.approx(
                _RS_ERR_C[k] * t ** (-(2 * k + 3) / 4.0))
            assert s.main_terms == int(math.floor(math.sqrt(t / (2 * math.pi))))


def test_z_err_est_is_the_stated_error():
    ts = np.array([0.5, 9.99, 10.0, 50.0, 1234.0, 5e4])
    for k in range(5):
        errs = z_err_est(ts, k)
        assert np.all(errs[:2] == _LOW_ERR)
        for t, e in zip(ts[2:], errs[2:]):
            assert e == pytest.approx(z_rs(t, k).err_est, rel=1e-15)
            assert z_err_est(t, k) == z_rs(t, k).err_est
    with pytest.raises(DomainError):
        z_err_est(ts, 5)


def test_zero_correspondence_on_10_200():
    # sign changes of the fast path match the oracle's within 1e-2
    ts = np.arange(10.0, 200.0, 5e-3)
    rs = z_rs_many(ts, 3)
    oracle = z_oracle_many(ts)
    z_rs_pos = ts[np.nonzero(np.sign(rs[1:]) * np.sign(rs[:-1]) < 0)[0]]
    z_or_pos = ts[np.nonzero(np.sign(oracle[1:]) * np.sign(oracle[:-1]) < 0)[0]]
    assert len(z_rs_pos) == len(z_or_pos)
    assert np.max(np.abs(z_rs_pos - z_or_pos)) <= 1e-2


def test_breakpoints():
    bps = z_breakpoints(1.0, 200.0)
    assert 10.0 in bps
    two_pi = 2.0 * math.pi
    for n in (2, 3, 4, 5):
        assert any(abs(b - two_pi * n * n) < 1e-12 for b in bps)


def test_breakpoints_refuse_heights_past_z():
    # Z's top height is where the main sum passes N_MULT terms; past it
    # z_breakpoints refuses at once, before its loop makes a float per
    # transition (about 1.65e8 of them up to 1e18), so a moment there is a
    # domain error before any budget check
    assert Z_TOP == 2.0 * math.pi * (N_MULT + 1) ** 2
    assert z_breakpoints(Z_TOP - 1.0e4, Z_TOP) == (
        2.0 * math.pi * N_MULT * N_MULT,)
    for b in (math.nextafter(Z_TOP, math.inf), 2e6, 4.3e11, 1.0e18):
        with pytest.raises(DomainError):
            z_breakpoints(1.0, b)
    for a in (1.0e6, 1.0e12):
        with pytest.raises(DomainError):
            hardy_moment(1, a, 2.0 * a, budget=17_000)
    with pytest.raises(DomainError):
        z_rs_many(np.array([Z_TOP]))


def test_eval_many_switches_at_10():
    ts = np.array([2.0, 9.5, 10.5, 60.0])
    vals = z_eval_many(ts)
    assert vals[0] == pytest.approx(z_oracle(2.0))
    assert vals[3] == pytest.approx(z_rs(60.0, 3).value)


def test_rs_value_independent_of_batch():
    t = np.random.default_rng(1).uniform(100.0, 3000.0, 2000)
    mixed = np.random.default_rng(2).uniform(10.0, 5e4, 20000)
    for k in (0, 3, 4):
        batch = z_rs_many(t, k)
        alone = np.array([z_rs_many(t[i:i + 1], k)[0] for i in range(300)])
        assert np.array_equal(alone, batch[:300])
        assert np.array_equal(z_rs_many(np.append(t, 5e4), k)[:-1], batch)
        big = z_rs_many(np.concatenate([mixed[:7000], t, mixed[7000:]]), k)
        assert np.array_equal(big[7000:9000], batch)
    # below t = 10, and in batches that cross the switch
    low = np.random.default_rng(3).uniform(0.0, 10.0, 2000)
    low_batch = z_eval_many(low)
    alone = np.array([z_eval_many(low[i:i + 1])[0] for i in range(300)])
    assert np.array_equal(alone, low_batch[:300])
    for k in (0, 3, 4):
        both = z_eval_many(np.concatenate([t[:1000], low, mixed]), k)
        assert np.array_equal(both[1000:3000], low_batch)
        assert np.array_equal(both[:1000], z_rs_many(t[:1000], k))
    # lengths up to N_MULT, over many blocks of the kept tables
    wide = np.random.default_rng(4).uniform(1e4, Z_TOP, 400)
    batch = z_rs_many(wide, 3)
    alone = np.array([z_rs_many(wide[i:i + 1], 3)[0] for i in range(40)])
    assert np.array_equal(alone, batch[:40])
    # the tallest lengths, one height twice, beside the others
    tall = np.concatenate([wide[:100], [1.6e6, 1.55e6, 1.65e6, 1.6e6]])
    batch = z_rs_many(tall, 3)
    assert np.array_equal(batch[:100], z_rs_many(wide[:100], 3))
    alone = np.array([z_rs_many(tall[i:i + 1], 3)[0] for i in range(100, 104)])
    assert np.array_equal(alone, batch[100:])
    # one height past the others' lengths: its last terms are products over
    # one row, where numpy rounds an aliased complex product differently
    lone = np.append(t, 2 * math.pi * 40.5 ** 2)
    assert z_rs_many(lone, 3)[-1] == z_rs_many(lone[-1:], 3)[0]
    # just below Z_TOP = 2 pi (N_MULT + 1)^2, the kernel's last length,
    # alone, together and among the mixed heights; the last few doubles
    # below it, whose sqrt(t / 2 pi) rounds to N_MULT + 1, compute, within
    # rounding of the heights just below them, and Z_TOP refuses
    top = np.nextafter(Z_TOP, 0.0) - np.spacing(Z_TOP) * np.arange(6)
    near = np.concatenate([
        Z_TOP * np.random.default_rng(5).uniform(0.9, 1.0, 300), top])
    batch = z_rs_many(near, 3)
    alone = np.array([z_rs_many(t_i[None], 3)[0] for t_i in near])
    assert np.array_equal(alone, batch)
    assert np.array_equal(z_rs_many(np.append(mixed, near), 3)[len(mixed):],
                          batch)
    assert np.all(np.isfinite(batch))
    assert np.ptp(batch[-len(top):]) <= 1e-6
    for t_bad in (Z_TOP, np.nextafter(Z_TOP, np.inf)):
        with pytest.raises(DomainError):
            z_rs_many(np.array([t_bad]), 3)


def test_complex_products_round_alike_at_every_layout():
    # the multiplicative kernel's per-n pass multiplies two rows of terms
    # over a suffix of a block's rows (those with N >= n), of one row to
    # thousands, always into a distinct output; a height's value does not
    # depend on its batch only if each product rounds the same at every such
    # length.  The gathered 2-D products below are a layout the kernel no
    # longer forms, still checked as a numpy property
    rng = np.random.default_rng(14)
    re, im = rng.standard_normal((2, 2, 40, 300))
    a, b = re + 1j * im
    ref = np.multiply(a, b)
    out = np.empty(300, complex)
    for i in range(0, 40, 7):
        for f in range(300):
            np.multiply(a[i, f:], b[i, f:], out=out[f:])
            assert np.array_equal(out[f:], ref[i, f:])
    for rows in (1, 2, 3, 7, 16, 255, 300):
        idx = rng.integers(0, 40, 13)
        got = np.empty((13, rows), complex)
        np.multiply(np.take(a[:, :rows], idx, axis=0),
                    np.take(b[:, :rows], idx, axis=0), out=got)
        assert np.array_equal(got, ref[idx, :rows])


def _fresh_kept_tables(monkeypatch):
    monkeypatch.setattr(hardy, "_REMAINDER", tuple(
        np.full_like(table, np.nan) for table in hardy._REMAINDER))
    monkeypatch.setattr(hardy, "_BUILT", np.zeros_like(hardy._BUILT))


def test_kept_tables_do_not_depend_on_fill_order(monkeypatch):
    # a length's column is _remainder_rows of that length alone, whichever
    # blocks were filled before it and however many one call fills
    t = np.random.default_rng(15).uniform(10.0, 2 * math.pi * 512.9 ** 2, 3000)
    blocks = np.unique(np.sqrt(t / (2 * math.pi)).astype(int) // _BLOCK)
    assert len(blocks) == hardy._KEPT_BLOCKS
    kept = []
    for one_call in (True, False):
        _fresh_kept_tables(monkeypatch)
        if one_call:
            values = z_rs_many(t, 3)
        else:
            for q in blocks[::-1]:
                hardy._fill_blocks(np.array([q]))
            assert np.array_equal(z_rs_many(t, 3), values)
        assert hardy._BUILT.all()
        kept.append(hardy._REMAINDER)
    for N in (0, 1, 17, 255, 400, 511, 512, 527):
        cols = slice(N * PSI_PIECES, (N + 1) * PSI_PIECES)
        alone = _remainder_rows(np.array([N]))
        for K in range(5):
            assert np.array_equal(kept[0][K][:, cols], alone[K])
            assert np.array_equal(kept[1][K][:, cols], alone[K])


def _remainder_rows_reference(n):
    # the tables' formula as first written: temporaries per degree, np.tile,
    # np.cumsum over k and a transposed copy
    big_a = (n[:, None] + _PIECE_CENTERS).ravel()
    r = 1.0 / big_a
    K = len(hardy._C_TERMS)
    b = np.empty((_C_DEGREE + 1, K, big_a.size))
    b[0, 0] = np.repeat(np.where(n % 2 == 1, 1.0, -1.0), PSI_PIECES) \
        / np.sqrt(big_a)
    for k in range(1, K):
        b[0, k] = b[0, k - 1] * r
    half = np.arange(K) + 0.5
    for m in range(1, _C_DEGREE + 1):
        b[m] = b[m - 1] * (-(half + (m - 1)) / m)[:, None] * r
    prod = np.zeros_like(b)
    for i, c in enumerate(np.tile(_C_TABLE, len(n))):
        prod[i:] += c * b[:_C_DEGREE + 1 - i]
    return np.cumsum(prod, axis=1).transpose(1, 0, 2).copy()


def test_remainder_rows_keep_their_bits():
    # starting each sum from its first product, not from zero, relies on no
    # product being 0
    assert np.count_nonzero(_C_TABLE) == _C_TABLE.size
    for lo in (0, 496, 513, 4000):
        n = np.arange(lo, lo + 16)
        got, ref = _remainder_rows(n), _remainder_rows_reference(n)
        assert got.shape == ref.shape == (5, _C_DEGREE + 1, 16 * PSI_PIECES)
        # bit for bit, the sign of zero included
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _horner_reference(table, idx, u):
    # the Horner pass as first written: every coefficient row gathered into
    # one (degree + 1, rows) array, then the pass over it
    coef = np.take(table, idx, axis=1)
    acc = coef[-1].copy()
    for c in coef[-2::-1]:
        acc *= u
        acc += c
    return acc


def test_horner_keeps_the_gathered_bits(monkeypatch):
    _fresh_kept_tables(monkeypatch)
    hardy._fill_blocks(np.arange(hardy._KEPT_BLOCKS))
    rng = np.random.default_rng(17)
    tables = [(hardy._LOW_TABLE, 0.5 * hardy._LOW_WIDTH)]
    tables += [(table, 0.025) for table in hardy._REMAINDER]
    for table, half in tables:
        # the first and last columns, then seeded ones, at |u| <= half a
        # piece and at its ends
        last = table.shape[1] - 1
        idx = np.concatenate([[0, 0, last, last], rng.integers(0, last, 5000)])
        u = np.concatenate([[-half, half, -half, half],
                            rng.uniform(-half, half, 5000)])
        got, ref = _horner(table, idx, u), _horner_reference(table, idx, u)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_one_height_fills_one_block(monkeypatch):
    t = np.array([2 * math.pi * 500.5 ** 2])
    value = z_rs_many(t, 3)
    _fresh_kept_tables(monkeypatch)
    built = []
    rows = hardy._remainder_rows
    monkeypatch.setattr(hardy, "_remainder_rows",
                        lambda n: built.append(n.tolist()) or rows(n))
    assert np.array_equal(z_rs_many(t, 3), value)
    assert built == [list(range(496, 512))]
    assert np.flatnonzero(hardy._BUILT).tolist() == [500 // _BLOCK]
    # warm: nothing more is built
    assert np.array_equal(z_rs_many(t, 4), z_rs_many(t, 4))
    assert len(built) == 1


def test_rs_keeps_the_input_shape():
    for fn, lo in ((z_rs_many, 10.0), (z_eval_many, 5.0)):
        assert fn(np.array([]), 3).shape == (0,)
        assert fn(np.empty((0, 4)), 3).shape == (0, 4)
        t = np.random.default_rng(16).uniform(lo, 1e5, (3, 50))
        got = fn(t, 3)
        assert got.shape == (3, 50)
        assert np.array_equal(got, fn(t.ravel(), 3).reshape(3, 50))
        assert np.array_equal(fn(t.T, 3), got.T)
        one = fn(np.float64(t[0, 0]), 3)
        assert one.shape == () and one == got[0, 0]
    with pytest.raises(DomainError):
        z_rs_many(np.array([]), corrections=5)


def _libm_check_phases():
    # 10^6 seeded phases log-spread over |x| <= 6e12 (within the reduction's
    # range, |x| < 2^41 pi, and far past Z's), then the edges: 0, +-pi/2,
    # +-pi, multiples k * 2 pi up to k = 2^40, and the doubles on either
    # side of each
    rng = np.random.default_rng(12)
    x = 10.0 ** rng.uniform(-3.0, math.log10(6e12), 1_000_000)
    x *= rng.choice([-1.0, 1.0], x.size)
    k = np.concatenate([2.0 ** np.arange(41),
                        rng.integers(1, 2 ** 40, 200).astype(float)])
    edges = np.concatenate([[0.0, math.pi / 2, math.pi], k * (2 * math.pi)])
    edges = np.concatenate([edges, -edges])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
    x = np.concatenate([x, edges])
    # the stated bound, 2^-48 + 2^-17 ulp(x), plus libm's own rounding
    # (within one ulp, at most 2^-52)
    return x, 2.0 ** -48 + 2.0 ** -17 * np.spacing(np.abs(x)) + 2.0 ** -52


def test_quarter_angle_cos_sin_match_libm():
    x, bound = _libm_check_phases()
    cs = np.empty((2,) + x.shape)
    _cis_of_quarter(0.25 * x, cs)
    for got, ref in zip(cs, (np.cos(x), np.sin(x))):
        err = np.abs(got - ref)
        assert np.all(err <= bound), float(np.max(err / bound))


def _leaf_points():
    # a dense grid of |y| <= pi / 4, its ends, signed zeros, a tiny normal
    # and a subnormal of either sign
    edges = [math.pi / 4, 0.0, 1e-300, 5e-324]
    return np.concatenate([np.linspace(-math.pi / 4, math.pi / 4, 1_000_001),
                           edges, np.negative(edges)])


def _ulps_apart(got, ref):
    # signs must agree; then the distance in representable doubles
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    return np.abs(got.view(np.int64) - ref.view(np.int64))


def test_cis_leaf_within_one_ulp_of_libm():
    y = _leaf_points()
    cs = np.empty((2,) + y.shape)
    _cis_leaf(y, cs)
    for got, ref in zip(cs, (np.cos(y), np.sin(y))):
        assert _ulps_apart(got, ref).max() <= 1


def test_cis_leaf_within_one_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    y = _leaf_points()[::97]
    cs = np.empty((2,) + y.shape)
    _cis_leaf(y, cs)
    with mpmath.workprec(120):
        ref = np.array([[float(f(mpmath.mpf(float(v)))) for v in y]
                        for f in (mpmath.cos, mpmath.sin)])
    for got, r in zip(cs, ref):
        assert _ulps_apart(got, r).max() <= 1


def test_z_path_calls_no_libm_sine_or_cosine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("libm sine or cosine called")

    monkeypatch.setattr(np, "sin", refuse)
    monkeypatch.setattr(np, "cos", refuse)
    # the low table, and the Riemann-Siegel kernel up to its last height
    for t in ([0.5, 9.5], [10.0, 1e3, 4e4], [1e6, np.nextafter(Z_TOP, 0.0)]):
        for k in (0, 3, 4):
            assert np.all(np.isfinite(z_eval_many(np.array(t), k)))


def _plain_main_sum(t, theta, N):
    # sum_{n<=N} n^{-1/2} cos(theta - t ln n) with libm's cosine, one masked
    # pass per n
    out = np.zeros_like(t)
    for n in range(1, int(N.max()) + 1):
        m = N >= n
        out[m] += np.cos(theta[m] - t[m] * math.log(n)) / math.sqrt(n)
    return out


@pytest.mark.parametrize("lo, hi", [
    (10.0, 1e2), (1e2, 1e3), (1e3, 1e4), (1e4, 5e4), (5e4, Z_TOP)])
def test_multiplicative_kernel_matches_direct(lo, hi):
    t = np.sort(np.random.default_rng(13).uniform(lo, hi, 20000))
    N = np.floor(np.sqrt(t / (2 * math.pi))).astype(np.intp)
    assert N[-1] <= N_MULT
    theta = theta_many(t)
    mult = np.zeros_like(t)
    _main_mult(t, theta, N, mult)
    err = np.abs(mult - 2.0 * _plain_main_sum(t, theta, N))
    assert np.all(err <= _rounding_floor(t)), \
        float(np.max(err / _rounding_floor(t)))


@pytest.mark.parametrize("work", [1 << 10, 1 << 13])
def test_main_sum_does_not_depend_on_the_block_size(monkeypatch, work):
    # mixed lengths up to one lone tallest height (N = 512, the rest at most
    # 504), whose last products run over one row
    rng = np.random.default_rng(18)
    t = np.sort(np.concatenate([rng.uniform(10.0, 5e4, 1000),
                                rng.uniform(5e4, 1.6e6, 100),
                                [2 * math.pi * 512.5 ** 2]]))
    N = np.floor(np.sqrt(t / (2 * math.pi))).astype(np.intp)
    assert N[-1] == N_MULT and N[-2] < N_MULT
    theta = theta_many(t)
    ref = np.zeros_like(t)
    _main_mult(t, theta, N, ref)
    z = z_rs_many(t, 3)
    # at 2^10 floats a tallest row is a block of its own
    monkeypatch.setattr(hardy, "_MULT_WORK", work)
    got = np.zeros_like(t)
    _main_mult(t, theta, N, got)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.array_equal(z_rs_many(t, 3), z)


@pytest.mark.parametrize("kernel", ["multiplicative"])
def test_rs_within_stated_error_of_frozen_references(kernel):
    # every height here takes the multiplicative kernel, Z's one main sum
    t = np.array(list(Z_RS_REF))
    assert np.all(np.floor(np.sqrt(t / (2 * math.pi))) <= N_MULT), kernel
    ref = np.array(list(Z_RS_REF.values()))
    for k in range(5):
        err = np.abs(z_rs_many(t, k) - ref)
        assert np.all(err <= z_err_est(t, k) + _rounding_floor(t)), k


# The derivative combinations the folded tables replace: Psi^{(d)} from
# derivative d of the Psi Taylor polynomials, one Horner pass per derivative.
_PI2 = math.pi ** 2


def _psi_derivative(p, d):
    idx = np.clip((p * PSI_PIECES).astype(int), 0, PSI_PIECES - 1)
    u = p - (idx + 0.5) / PSI_PIECES
    coeffs = _PSI_TAYLOR[idx]
    for _ in range(d):
        coeffs = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    out = np.zeros_like(p)
    for m in range(coeffs.shape[1] - 1, -1, -1):
        out = out * u + coeffs[:, m]
    return out


def _correction_reference(p, k):
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
    return (_psi_derivative(p, 0) / (128.0 * _PI2)
            + 19.0 * _psi_derivative(p, 4) / (24576.0 * _PI2 ** 2)
            + 11.0 * _psi_derivative(p, 8) / (5898240.0 * _PI2 ** 3)
            + _psi_derivative(p, 12) / (2038431744.0 * _PI2 ** 4))


def _pieces(p):
    idx = np.minimum((p * PSI_PIECES).astype(np.intp), PSI_PIECES - 1)
    return idx, p - _PIECE_CENTERS[idx]


def test_folded_corrections_match_derivative_formula():
    edges = np.arange(PSI_PIECES) / PSI_PIECES
    below = np.nextafter(np.append(edges[1:], 1.0), 0.0)
    p = np.concatenate([edges, below, np.random.default_rng(5).random(20000)])
    idx, u = _pieces(p)
    for k in range(5):
        c = _horner(_C_TABLE[:, k], idx, u)
        assert np.max(np.abs(c - _correction_reference(p, k))) <= 1e-16
    # the folded terms past _C_DEGREE, bounded at |u| <= 0.025
    dropped = np.abs(_fold_correction_tables()[_C_DEGREE + 1:]).max(axis=2)
    powers = 0.025 ** np.arange(_C_DEGREE + 1, PSI_ORDER + 1)
    assert np.all(powers @ dropped < 1e-20)

    # the remainder polynomial of length N against the recombination
    # (-1)^(N+1) a^{-1/2} sum_{k<=K} C_k(p) a^{-k}, at both edges of every
    # piece
    p = np.concatenate([edges, below])
    idx, u = _pieces(p)
    c = [_correction_reference(p, k) for k in range(5)]
    m = np.arange(60)[:, None]
    for N in (1, 2, 7, 40, 89, 400):
        a = N + p
        hardy._fill_blocks(np.array([N // _BLOCK]))
        col = idx + N * PSI_PIECES
        for K in range(5):
            ref = sum(c[k] * a ** -k for k in range(K + 1)) \
                * (-1.0) ** (N + 1) / np.sqrt(a)
            folded = _horner(hardy._REMAINDER[K], col, u)
            assert np.max(np.abs(folded - ref)) <= 1e-15
        # the terms of C_k times the binomial series of
        # (N + c_j + u)^{-k-1/2} dropped past degree _C_DEGREE, summed over
        # k, at |u| <= 0.025
        big_a = N + _PIECE_CENTERS
        dropped = np.zeros(PSI_PIECES)
        for k in range(5):
            ratio = np.append(1.0, -(k + 0.5 + np.arange(59)) / np.arange(1, 60))
            series = np.cumprod(ratio)[:, None] * big_a ** (-k - 0.5 - m)
            prod = sum(np.pad(_C_TABLE[i, k] * series,
                              ((i, _C_DEGREE - i), (0, 0)))
                       for i in range(_C_DEGREE + 1))
            dropped += (np.abs(prod[_C_DEGREE + 1:]) * 0.025
                        ** np.arange(_C_DEGREE + 1, len(prod))[:, None]
                        ).sum(axis=0)
        assert np.all(dropped < 1e-20)


@pytest.mark.parametrize("fn, lo, hi, n", [
    (z_oracle_many, 4000.0, 5000.0, 500),
    (lambda t: z_rs_many(t, 4), 1e4, 5e4, 65536),
    (z_oracle_many, 4e4, 4e4, 200),
    (lambda t: z_rs_many(t, 3), 1e6, Z_TOP, 6000),
    (z_eval_many, 0.0, 10.0, 10 ** 6),
])
def test_batch_memory_bounded(fn, lo, hi, n):
    t = np.random.default_rng(6).uniform(lo, hi, n)
    tracemalloc.start()
    try:
        fn(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # heights that share one main-sum length (here N = 52,000) fill every
    # row block of the oracle; below t = 10 the frozen table's Horner pass
    # runs a chunk at a time (41.2 MB was the gathered form's peak)
    assert peak < (41.2 if hi == 10.0 else 8 if lo == hi else 32) * 2 ** 20


# per band: one warm-up z_eval_many call, then five more on the same 65,536
# sorted heights, each with the minor page faults it took
_FAULT_PROBE = """
import json, resource
import numpy as np
from hardylab.hardy import z_eval_many

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

rng = np.random.default_rng(3)
faults = []
for lo, hi in ((1e2, 1e4), (1e4, 5e4)):
    ts = np.sort(rng.uniform(lo, hi, 65536))
    z_eval_many(ts, 3)
    band = []
    for _ in range(5):
        before = minflt()
        z_eval_many(ts, 3)
        band.append(minflt() - before)
    faults.append(band)
print(json.dumps(faults))
"""


def test_repeated_batches_take_no_new_pages():
    # in a fresh process, a repeated batch reuses the pages of the one
    # before: medians 0 and 0 faults per call on a 2-core Xeon.  With the
    # main sum's block arrays allocated one by one, glibc gave their pages
    # back after every block (9,575 and 18,858 faults per call); with fresh
    # cosine and sine rows per block, 2,081 on [1e2, 1e4).  Timings in one
    # process, whose malloc thresholds both sides share, show neither
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    for band, faults in zip(("[1e2, 1e4)", "[1e4, 5e4)"),
                            json.loads(res.stdout)):
        assert np.median(faults) <= 256, (band, faults)
