"""Engine introspection: the ``repro engines`` listing.

Renders every engine's declared
:class:`~repro.engine.base.EngineCapabilities` as a capability table, so a
user deciding between ``--engine`` values (or staring at an
:class:`~repro.errors.UnsupportedScenario` message) can see at a glance
which tier covers their scenario.
"""

from __future__ import annotations

from typing import Dict, List

from ..engine.base import (
    ALL_FAULT_KINDS,
    available_engines,
    get_engine,
)

__all__ = ["engine_catalog", "render_engine_catalog"]


def engine_catalog() -> List[Dict[str, object]]:
    """One JSON-ready capability row per engine, sorted by name."""
    rows: List[Dict[str, object]] = []
    for name in available_engines():
        caps = get_engine(name).capabilities()
        rows.append(
            {
                "name": name,
                "summary": caps.summary,
                "topologies": list(caps.topologies),
                "fault_kinds": list(caps.fault_kinds),
                "max_leaves": caps.max_leaves,
            }
        )
    return rows


def render_engine_catalog(catalog: List[Dict[str, object]]) -> str:
    """ASCII capability table in the repo's renderer style."""
    header = ("engine", "topologies", "fault kinds", "summary")
    rows = [header]
    for row in catalog:
        topologies = ", ".join(row["topologies"])
        if row["max_leaves"] is not None:
            topologies += f" (≤{row['max_leaves']} leaves)"
        faults = row["fault_kinds"]
        if tuple(faults) == ALL_FAULT_KINDS:
            fault_text = "all"
        elif faults:
            fault_text = ", ".join(faults)
        else:
            fault_text = "none"
        rows.append(
            (
                str(row["name"]),
                topologies,
                fault_text,
                str(row["summary"]),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
