"""Shared experiment plumbing: result rows, markdown tables, RNG orders."""
from __future__ import annotations

import os
import random
import zlib
from typing import Any

from repro.core.jointree import JoinTree


def md_table(rows: list[dict[str, Any]], cols: list[str] | None = None, floatfmt: str = ".3g") -> str:
    """Render result rows as a GitHub markdown table."""
    if not rows:
        return "(no rows)"
    cols = cols or list(rows[0].keys())

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    out = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out)


def seeded_rng(*parts: Any) -> random.Random:
    """An RNG seeded from ``parts`` identically in every process (``hash``
    of a string is randomized per process; CRC-32 of the repr is not)."""
    return random.Random(zlib.crc32(repr(parts).encode()))


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def random_valid_order(tree: JoinTree, rng: random.Random) -> list[str]:
    """Uniform-ish random valid left-deep order (random eligible pick)."""
    order: list[str] = []
    processed: set[str] = set()
    while len(order) < len(tree.nonroot):
        order.append(rng.choice(sorted(tree.eligible(processed))))
        processed.add(order[-1])
    return order


def percentile(xs: list[float], q: float) -> float:
    ys = sorted(xs)
    if not ys:
        return float("nan")
    return ys[min(len(ys) - 1, int(q * len(ys)))]
