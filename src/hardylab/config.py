"""Run configuration: tolerances, budgets, output format and seed.

A run with identical config and seed produces bit-identical output; every
field below has a documented default and can be overridden from a flat
``key=value`` config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass
class RunConfig:
    # Accepted and unused: moment integrals are one fixed quadrature pass.
    tol_moment: float = 1e-7
    # Mellin truncation-selection tolerance.
    tol_mellin: float = 1e-6
    # Cap on integrand evaluations per moment or direct Mellin integral,
    # checked before the first evaluation.
    eval_budget: int = 100_000_000
    output_format: str = "csv"  # csv | json
    seed: int = 20260808


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus overrides."""
    cfg = RunConfig()
    valid = {f.name for f in fields(RunConfig)}

    def apply(key: str, raw: str) -> None:
        if key not in valid:
            raise KeyError(f"unknown config key: {key}")
        # every field is an int, float or str; parse by its default's type
        setattr(cfg, key, type(getattr(cfg, key))(raw))

    if path is not None:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            apply(key.strip(), raw.strip())
    for key, raw in (overrides or {}).items():
        apply(key, str(raw))
    if cfg.output_format not in ("csv", "json"):
        raise ValueError("output_format must be csv or json, "
                         f"got {cfg.output_format!r}")
    if not 0.0 < cfg.tol_mellin < math.inf:
        raise ValueError("tol_mellin must be finite and positive, "
                         f"got {cfg.tol_mellin}")
    for key in ("eval_budget", "seed"):
        if (value := getattr(cfg, key)) < 0:
            raise ValueError(f"{key} must be non-negative, got {value}")
    return cfg


DEFAULTS = RunConfig()
