#!/usr/bin/env python3
"""Calibrate the Riemann-Siegel remainder constants.

For each correction count K the error law is |z_rs(t,K) - Z(t)| <= c_K *
t^{-(2K+3)/4}.  This script measures the error against z_oracle_many on a
grid over [50, 5000], reports sup |err| * t^{(2K+3)/4} and the suggested
constant (sup * 1.5), which is what _RS_ERR_C in hardy.py stores.
"""

import numpy as np

from hardylab.hardy import z_oracle_many, z_rs_many


def main() -> None:
    rng = np.random.default_rng(20260808)
    t = np.sort(np.concatenate([
        np.linspace(50.0, 200.0, 120),
        np.geomspace(200.0, 5000.0, 160),
        50.0 + 4950.0 * rng.random(120),
    ]))
    ref = z_oracle_many(t)
    print("K   sup err*t^((2K+3)/4)   suggested c_K")
    for k in range(5):
        err = np.abs(z_rs_many(t, k) - ref)
        scaled = err * t ** ((2 * k + 3) / 4.0)
        c = scaled.max()
        print(f"{k}   {c:.4e}            {1.5 * c:.3g}")


if __name__ == "__main__":
    main()
