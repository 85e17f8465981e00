"""Per-layer dynamic-range analysis and es selection (§III-B "Adjust Dynamic Range").

The paper motivates its es assignment (es = 1 for weights/activations, es = 2
for gradients/errors) with a qualitative criterion: a tensor whose values
span a wider range in the log2 domain needs a posit format with a larger
dynamic range, i.e. a larger ``es``.  This module makes that criterion
executable:

* :func:`log2_range` measures a tensor's dynamic range as the difference
  between the maximum and minimum ``log2`` magnitude (the paper's measure).
* :func:`recommend_es` picks the smallest ``es`` whose posit format covers a
  measured range (with a safety margin), which is the "qualitative criteria
  to select a proper es" of the contribution list.
* :class:`RangeTracker` collects those measurements per layer and per role
  during a calibration pass or a training run, producing the evidence table
  that backs the policy choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..posit import PositConfig
from .scaling import log2_magnitudes

__all__ = ["log2_range", "covered_log2_range", "recommend_es", "RangeObservation", "RangeTracker"]


def log2_range(x: np.ndarray, percentile: float = 0.0) -> float:
    """Dynamic range of ``x`` in the log2 domain.

    Parameters
    ----------
    x:
        Tensor values.
    percentile:
        If non-zero, the range is measured between the ``percentile`` and
        ``100 - percentile`` percentiles of the magnitude distribution rather
        than the absolute min/max, which makes the measure robust to isolated
        outliers.
    """
    mag = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    mag = mag[np.isfinite(mag) & (mag > 0)]
    if mag.size == 0:
        return 0.0
    if percentile > 0:
        low = np.percentile(mag, percentile)
        high = np.percentile(mag, 100 - percentile)
    else:
        low, high = mag.min(), mag.max()
    if low <= 0 or high <= 0:
        return 0.0
    return float(np.log2(high) - np.log2(low))


def covered_log2_range(config: PositConfig) -> float:
    """Total log2 range covered by a posit format, ``log2(maxpos / minpos)``."""
    return float(2 * config.max_exponent)


def recommend_es(measured_range: float, n: int, margin: float = 0.5,
                 max_es: int = 4) -> int:
    """Pick the smallest ``es`` whose ``(n, es)`` posit covers ``measured_range``.

    Parameters
    ----------
    measured_range:
        Dynamic range of the data in the log2 domain (e.g. from
        :func:`log2_range`).
    n:
        Posit word size under consideration.
    margin:
        Fractional head-room: the format must cover
        ``measured_range * (1 + margin)``.
    max_es:
        Upper bound on the returned ``es``.

    Returns
    -------
    int
        The recommended exponent field size.  When even ``max_es`` cannot
        cover the range, ``max_es`` is returned (the caller may then decide
        to rely on scaling factors instead).
    """
    if measured_range < 0:
        raise ValueError(f"measured_range must be non-negative, got {measured_range}")
    target = measured_range * (1.0 + margin)
    for es in range(0, max_es + 1):
        if covered_log2_range(PositConfig(n, es)) >= target:
            return es
    return max_es


@dataclass
class RangeObservation:
    """Accumulated range statistics for one (layer, role) pair."""

    layer: str
    role: str
    count: int = 0
    min_log2: float = field(default=float("inf"))
    max_log2: float = field(default=float("-inf"))
    sum_range: float = 0.0

    def update(self, x: np.ndarray) -> None:
        """Fold one tensor into the statistics."""
        logs = log2_magnitudes(x)
        if logs.size == 0:
            return
        low, high = logs.min(), logs.max()
        self.min_log2 = min(self.min_log2, float(low))
        self.max_log2 = max(self.max_log2, float(high))
        self.sum_range += float(high - low)
        self.count += 1

    @property
    def overall_range(self) -> float:
        """Range between the global min and max magnitudes observed."""
        if self.count == 0:
            return 0.0
        return self.max_log2 - self.min_log2

    @property
    def mean_range(self) -> float:
        """Mean per-tensor range over all observations."""
        return self.sum_range / self.count if self.count else 0.0


class RangeTracker:
    """Collects per-layer, per-role dynamic ranges and recommends es values."""

    def __init__(self, n_bits: int = 8, margin: float = 0.5):
        self.n_bits = n_bits
        self.margin = margin
        self.observations: dict[tuple[str, str], RangeObservation] = {}

    def record(self, layer: str, role: str, x: np.ndarray) -> None:
        """Record one tensor for ``(layer, role)``."""
        key = (layer, role)
        observation = self.observations.get(key)
        if observation is None:
            observation = RangeObservation(layer=layer, role=role)
            self.observations[key] = observation
        observation.update(x)

    def record_model_weights(self, model) -> None:
        """Record the current weights of every parameterized layer of ``model``."""
        for name, param in model.named_parameters():
            self.record(name, "weight", param.data)

    def report(self) -> list[dict]:
        """Return one row per (layer, role) with ranges and the recommended es."""
        rows = []
        for (layer, role), observation in sorted(self.observations.items()):
            rows.append(
                {
                    "layer": layer,
                    "role": role,
                    "observations": observation.count,
                    "overall_log2_range": observation.overall_range,
                    "mean_log2_range": observation.mean_range,
                    "recommended_es": recommend_es(
                        observation.overall_range, self.n_bits, margin=self.margin
                    ),
                }
            )
        return rows

    def recommended_es_by_role(self) -> dict[str, int]:
        """Aggregate the recommendation per role (max over layers).

        This is the form in which the paper states its conclusion: gradients
        and errors need a larger es than weights and activations.
        """
        per_role: dict[str, int] = {}
        for row in self.report():
            role = row["role"]
            per_role[role] = max(per_role.get(role, 0), row["recommended_es"])
        return per_role
