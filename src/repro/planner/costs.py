"""Deterministic per-experiment cost estimates for budgeted planning.

The measurement budget is denominated in *estimated simulated
experiment-seconds*, never wall-clock: admission decisions must be
bit-identical across re-runs and worker counts, so the estimates are a
pure function of the campaign settings — optionally recalibrated, still
deterministically, from a previous campaign's ``telemetry.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Mapping, Sequence

from ..core.experiments.pipeline import PRODUCT_KINDS
from ..errors import ConfigurationError
from ..telemetry.report import load_report

__all__ = ["PRODUCT_KINDS", "CostModel"]

#: Relative weight of each kind on top of its base duration: stage-two
#: products co-run two workloads, so they cost roughly twice a solo run.
_KIND_WEIGHTS = {
    "calibration": 1.0,
    "impact": 1.0,
    "comp_sig": 1.0,
    "baseline": 1.0,
    "degradation": 2.0,
    "pair": 2.0,
}


def _kind_of(raw: str) -> str:
    kind = raw.split("/", 1)[0]
    if kind not in PRODUCT_KINDS:
        raise ConfigurationError(f"unknown product kind in key {raw!r}")
    return kind


@dataclass(frozen=True)
class CostModel:
    """Per-kind cost estimates, in simulated experiment-seconds.

    Attributes:
        per_kind: estimated cost of one product of each kind.
        source: provenance label (``"settings"`` or the telemetry file the
            estimates were calibrated from) — recorded in plan traces.
    """

    per_kind: Mapping[str, float]
    source: str = "settings"

    def __post_init__(self) -> None:
        missing = [kind for kind in PRODUCT_KINDS if kind not in self.per_kind]
        if missing:
            raise ConfigurationError(
                f"cost model missing kinds: {', '.join(missing)}"
            )
        for kind, cost in self.per_kind.items():
            if cost <= 0:
                raise ConfigurationError(
                    f"cost for kind {kind!r} must be > 0, got {cost}"
                )
        # Freeze the mapping so a shared model can't drift mid-campaign.
        object.__setattr__(
            self, "per_kind", MappingProxyType(dict(self.per_kind))
        )

    def cost_of(self, raw: str) -> float:
        """Estimated cost of one raw product key."""
        return self.per_kind[_kind_of(raw)]

    def costs_for(self, raw_keys: Sequence[str]) -> list[float]:
        """Estimated cost of each key, aligned with the input order."""
        return [self.cost_of(raw) for raw in raw_keys]

    def to_dict(self) -> Dict[str, object]:
        return {"per_kind": dict(self.per_kind), "source": self.source}

    @classmethod
    def from_settings(cls, settings) -> "CostModel":
        """Derive estimates from a campaign's configured durations.

        Each kind's base is the simulated duration its experiment runs for
        (calibration/impact/signature), weighted up for the co-running
        stage-two kinds.  Purely a function of the settings — two planned
        campaigns with the same settings always agree on every estimate.
        """
        base = {
            "calibration": settings.calibration_duration,
            "impact": settings.impact_duration,
            "comp_sig": settings.signature_duration,
            "baseline": settings.impact_duration,
            "degradation": settings.impact_duration,
            "pair": settings.impact_duration,
        }
        return cls(
            per_kind={
                kind: base[kind] * _KIND_WEIGHTS[kind] for kind in PRODUCT_KINDS
            },
            source="settings",
        )

    @classmethod
    def from_telemetry_report(
        cls, path: str | Path, settings=None
    ) -> "CostModel":
        """Calibrate estimates from a previous campaign's ``telemetry.json``.

        The runner records one ``task:<key>`` span per executed attempt;
        grouping their durations by product kind and taking the mean gives
        an empirical cost per kind.  Kinds the previous campaign never ran
        fall back to the settings-derived estimate (when ``settings`` is
        given) or to the mean of the observed kinds.  Deterministic given
        the same report file.

        Raises:
            CorruptDocument: if the report cannot be read back.
            ConfigurationError: if it has no task spans and no settings
                are given.
        """
        document = load_report(path)
        records = document.get("spans", {}).get("records", [])
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for record in records:
            name = str(record.get("name", ""))
            if not name.startswith("task:"):
                continue
            # Keys may carry engine/scenario qualifiers ("analytic:pair/…");
            # the raw key is everything after the last ":".
            raw = name[len("task:"):].rsplit(":", 1)[-1]
            kind = raw.split("/", 1)[0]
            if kind not in PRODUCT_KINDS:
                continue
            duration = float(record.get("dur", 0.0))
            if duration <= 0:
                continue
            sums[kind] = sums.get(kind, 0.0) + duration
            counts[kind] = counts.get(kind, 0) + 1
        observed = {kind: sums[kind] / counts[kind] for kind in sums}
        if settings is not None:
            fallback: Mapping[str, float] = cls.from_settings(settings).per_kind
        elif observed:
            mean = sum(observed.values()) / len(observed)
            fallback = {kind: mean for kind in PRODUCT_KINDS}
        else:
            raise ConfigurationError(
                f"{path} has no task spans to calibrate costs from "
                "(pass settings for a fallback)"
            )
        return cls(
            per_kind={
                kind: observed.get(kind, fallback[kind])
                for kind in PRODUCT_KINDS
            },
            source=str(path),
        )
