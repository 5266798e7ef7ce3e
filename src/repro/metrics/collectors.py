"""Per-epoch time-series collection.

Every controller epoch the simulator appends one sample of each tracked
quantity; the resulting series drive the temporal figures (Fig 6) and
give visibility into controller behavior (when throttling engaged, how
utilization responded).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["EpochSeries"]


class EpochSeries:
    """Append-only named series sampled once per epoch.

    Alignment invariant: every series always has exactly one sample per
    recorded epoch (``len(series[name]) == len(series)``).  A series
    first recorded mid-run is backfilled with NaN for the epochs it
    missed, and a series omitted from an :meth:`append` is padded with
    NaN — without this, a late-appearing series would silently misalign
    with ``cycles`` and index off-by-many in the temporal figures.
    """

    def __init__(self):
        self._data: Dict[str, List[float]] = {}
        self.cycles: List[int] = []

    def append(self, cycle: int, **samples: float) -> None:
        self.cycles.append(cycle)
        n = len(self.cycles)
        for name, value in samples.items():
            column = self._data.setdefault(name, [])
            if len(column) < n - 1:  # first recorded mid-run: backfill
                column.extend([float("nan")] * (n - 1 - len(column)))
            column.append(float(value))
        for column in self._data.values():  # omitted this epoch: pad
            if len(column) < n:
                column.append(float("nan"))

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._data:
            raise KeyError(
                f"no series {name!r}; have {sorted(self._data)}"
            )
        return np.asarray(self._data[name])

    def names(self):
        return sorted(self._data)

    def __len__(self) -> int:
        return len(self.cycles)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpochSeries):
            return NotImplemented
        if self.cycles != other.cycles or set(self._data) != set(other._data):
            return False
        # NaN-aware: backfilled samples must compare equal to themselves.
        return all(
            np.array_equal(
                np.asarray(column, dtype=float),
                np.asarray(other._data[name], dtype=float),
                equal_nan=True,
            )
            for name, column in self._data.items()
        )

    # ------------------------------------------------------------------
    # Lossless round-trip (harness result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict; NaN backfill encodes as ``None`` so the
        payload stays strict RFC-8259 (``allow_nan=False`` safe)."""
        return {
            "cycles": list(self.cycles),
            "series": {
                name: [None if v != v else v for v in column]
                for name, column in self._data.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochSeries":
        """Restore :meth:`to_dict`'s dict; ``ValueError`` unless
        ``cycles`` is a list of ints, ``series`` a dict, and every series
        a list as long as ``cycles`` (the alignment invariant)."""
        cycles, series = data["cycles"], data["series"]
        if (
            type(cycles) is not list
            or not all(type(c) is int for c in cycles)
            or type(series) is not dict
        ):
            raise ValueError("malformed epoch series")
        out = cls()
        out.cycles = list(cycles)
        out._data = {
            name: _column(values, len(cycles))
            for name, values in series.items()
        }
        return out


def _column(values: list, length: int) -> List[float]:
    """One stored series as floats, ``null`` restored to NaN; a series
    without ``null`` converts in one pass."""
    if type(values) is not list or len(values) != length:
        raise ValueError("malformed epoch series")
    if None in values:
        return [float("nan") if v is None else float(v) for v in values]
    return list(map(float, values))
