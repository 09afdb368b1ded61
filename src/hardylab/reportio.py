"""Deterministic report serialization.

Floats are rendered in fixed 17-significant-digit scientific notation in
both CSV and JSON so the two formats mirror each other exactly and report
bundles are byte-reproducible.
"""

from __future__ import annotations

import math


def fmt(x) -> str:
    """Canonical text form for a scalar."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.16e}"
    if isinstance(x, complex):
        return f"{x.real:.16e}{x.imag:+.16e}j"
    return str(x)


def _json_scalar(x) -> str:
    """fmt(x) bare for a bool, an int or a finite float, else quoted."""
    if x is None:
        return "null"
    if isinstance(x, int) or isinstance(x, float) and math.isfinite(x):
        return fmt(x)
    return '"%s"' % fmt(x).replace("\\", "\\\\").replace('"', '\\"')


def to_json(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and canonical float formatting."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)
