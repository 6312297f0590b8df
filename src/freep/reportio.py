"""Deterministic JSON reports: sorted keys, floats at 17 significant digits
so that identical runs produce identical bytes, and no non-finite float."""

from __future__ import annotations

import json
import math


def _fmt(value, key: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"report value {key!r} is {float(value)}, which JSON cannot hold")
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v, key) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_fmt(v, str(k))}" for k, v in items)
        return "{" + body + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def report_json(obj: dict) -> str:
    return _fmt(obj, "") + "\n"
