"""Training metrics and history records.

Collects per-epoch loss/accuracy (train and validation) plus any auxiliary
scalars the trainer wants to log (learning rate, quantization phase, scale
factors).  The benchmark harness serializes these records into the tables
under ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["EpochRecord", "TrainingHistory", "AverageMeter"]


class AverageMeter:
    """Tracks a running mean of a scalar metric over an epoch."""

    def __init__(self, name: str = ""):
        self.name = name
        self.total = 0.0
        self.count = 0

    def update(self, value: float, count: int = 1) -> None:
        """Add ``value`` (already averaged over ``count`` samples) to the meter."""
        self.total += float(value) * count
        self.count += count

    @property
    def average(self) -> float:
        """Mean of all recorded values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Clear the meter."""
        self.total = 0.0
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AverageMeter({self.name!r}, average={self.average:.4f}, count={self.count})"


@dataclass
class EpochRecord:
    """Metrics for a single training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: Optional[float] = None
    val_accuracy: Optional[float] = None
    learning_rate: Optional[float] = None
    quantized: bool = False
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Return a flat dictionary representation."""
        record = {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "train_accuracy": self.train_accuracy,
            "val_loss": self.val_loss,
            "val_accuracy": self.val_accuracy,
            "learning_rate": self.learning_rate,
            "quantized": self.quantized,
        }
        record.update(self.extras)
        return record


@dataclass
class TrainingHistory:
    """Sequence of :class:`EpochRecord` objects with convenience accessors."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        """Add one epoch record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> EpochRecord:
        return self.records[index]

    @property
    def final_val_accuracy(self) -> Optional[float]:
        """Validation accuracy of the last epoch that reported one."""
        for record in reversed(self.records):
            if record.val_accuracy is not None:
                return record.val_accuracy
        return None

    @property
    def best_val_accuracy(self) -> Optional[float]:
        """Best validation accuracy observed over the run."""
        values = [r.val_accuracy for r in self.records if r.val_accuracy is not None]
        return max(values) if values else None

    @property
    def final_train_loss(self) -> Optional[float]:
        """Training loss of the last epoch."""
        return self.records[-1].train_loss if self.records else None

    def train_loss_curve(self) -> np.ndarray:
        """Training loss per epoch as an array."""
        return np.array([r.train_loss for r in self.records])

    def val_accuracy_curve(self) -> np.ndarray:
        """Validation accuracy per epoch (NaN where not evaluated)."""
        return np.array(
            [r.val_accuracy if r.val_accuracy is not None else np.nan for r in self.records]
        )

    def as_table(self) -> list[dict]:
        """Return all records as a list of dictionaries (one per epoch)."""
        return [r.as_dict() for r in self.records]

    def summary(self) -> dict:
        """Aggregate summary used by the benchmark reports."""
        return {
            "epochs": len(self.records),
            "final_val_accuracy": self.final_val_accuracy,
            "best_val_accuracy": self.best_val_accuracy,
            "final_train_loss": self.final_train_loss,
        }
