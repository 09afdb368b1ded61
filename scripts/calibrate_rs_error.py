#!/usr/bin/env python3
"""Calibrate the Riemann-Siegel remainder constants.

For each correction count K the error law is |z_rs(t,K) - Z(t)| <= c_K *
t^{-(2K+3)/4}.  This script measures the error against z_oracle_many on a
grid over [50, 5000], reports sup |err| * t^{(2K+3)/4} and the suggested
constant (sup * 1.5), which is what _RS_ERR_C in hardy.py stores.  With
--check it exits 1 if any suggested constant exceeds the stored one.
Needs only numpy and hardylab (run with src/ on PYTHONPATH).
"""

import sys

import numpy as np

from hardylab.hardy import _RS_ERR_C, z_oracle_many, z_rs_many


def main() -> int:
    rng = np.random.default_rng(20260808)
    t = np.sort(np.concatenate([
        np.linspace(50.0, 200.0, 120),
        np.geomspace(200.0, 5000.0, 160),
        50.0 + 4950.0 * rng.random(120),
    ]))
    ref = z_oracle_many(t)
    print("K   sup err*t^((2K+3)/4)   suggested c_K   stored c_K")
    over = []
    for k in range(5):
        err = np.abs(z_rs_many(t, k) - ref)
        scaled = err * t ** ((2 * k + 3) / 4.0)
        c = scaled.max()
        print(f"{k}   {c:.4e}            {1.5 * c:<13.3g}   {_RS_ERR_C[k]}")
        if 1.5 * c > _RS_ERR_C[k]:
            over.append(k)
    if "--check" in sys.argv[1:] and over:
        print(f"suggested constants exceed _RS_ERR_C for K = {over}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
