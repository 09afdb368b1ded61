"""Run configuration: tolerances, budgets, cache locations, output format.

A run with identical config and seed produces bit-identical output; every
field below has a documented default and can be overridden from a flat
``key=value`` config file or (for the cache directory) the environment
variable ``HARDYLAB_CACHE_DIR``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

ENV_CACHE_DIR = "HARDYLAB_CACHE_DIR"


@dataclass
class RunConfig:
    # Default absolute tolerances handed to the quadrature engine per caller.
    tol_moment: float = 1e-7
    tol_mellin: float = 1e-6
    # Hard cap on integrand evaluations per integral.
    eval_budget: int = 100_000_000
    cache_dir: str = ""
    output_format: str = "csv"  # csv | json
    seed: int = 20260808

    def resolved_cache_dir(self) -> Path:
        if self.cache_dir:
            return Path(self.cache_dir)
        env = os.environ.get(ENV_CACHE_DIR)
        if env:
            return Path(env)
        return Path.home() / ".cache" / "hardylab"


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus overrides."""
    cfg = RunConfig()
    valid = {f.name: f.type for f in fields(RunConfig)}
    def apply(key: str, raw: str) -> None:
        if key not in valid:
            raise KeyError(f"unknown config key: {key}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            setattr(cfg, key, raw.lower() in ("1", "true", "yes"))
        elif isinstance(current, int):
            setattr(cfg, key, int(raw))
        elif isinstance(current, float):
            setattr(cfg, key, float(raw))
        else:
            setattr(cfg, key, raw)

    if path is not None:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            apply(key.strip(), raw.strip())
    for key, raw in (overrides or {}).items():
        apply(key, str(raw))
    return cfg


DEFAULTS = RunConfig()
