"""Windowed aggregation and alerting over streamed OPM readings.

Everything here is incremental: state carried across chunks, no
whole-trace arrays.  Three aggregations (per-cycle ring, T-cycle window
ring, EMA) plus two alert watchers:

* :class:`DroopWatcher` — the §8.2 runtime use case.  Per-cycle delta-I
  (via :func:`repro.power.pdn.delta_current` semantics, computed with a
  carried previous-cycle current) feeds a droop-precursor detector with
  hysteresis, while the shared-rail voltage advances chunk by chunk
  through :meth:`PdnModel.step_chunk`.
* :class:`BudgetWatcher` — the §1 coarse-grained use case.  Completed
  T-cycle window readings are checked against a power budget and
  (optionally) fed straight into the existing
  :class:`~repro.flow.dvfs.DvfsGovernor` via its incremental ``step``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StreamError
from repro.power import kernels
from repro.power.pdn import PdnModel, PdnState

__all__ = ["RingBuffer", "EmaTracker", "DroopWatcher", "BudgetWatcher"]


class RingBuffer:
    """Fixed-capacity float ring holding the most recent readings."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise StreamError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._buf = np.zeros(self.capacity, dtype=np.float64)
        self._next = 0
        self._filled = 0
        self.total_pushed = 0

    def __len__(self) -> int:
        return self._filled

    def push(self, values: np.ndarray) -> None:
        vals = np.asarray(values, dtype=np.float64).ravel()
        self.total_pushed += int(vals.size)
        if vals.size >= self.capacity:
            self._buf[:] = vals[-self.capacity:]
            self._next = 0
            self._filled = self.capacity
            return
        end = self._next + vals.size
        if end <= self.capacity:
            self._buf[self._next:end] = vals
        else:
            split = self.capacity - self._next
            self._buf[self._next:] = vals[:split]
            self._buf[: end - self.capacity] = vals[split:]
        self._next = end % self.capacity
        self._filled = min(self.capacity, self._filled + vals.size)

    def values(self) -> np.ndarray:
        """Retained readings, oldest first."""
        if self._filled < self.capacity:
            return self._buf[: self._filled].copy()
        return np.concatenate(
            [self._buf[self._next:], self._buf[: self._next]]
        )


class EmaTracker:
    """Exponential moving average carried across chunks."""

    def __init__(self, alpha: float = 0.05) -> None:
        if not (0.0 < alpha <= 1.0):
            raise StreamError(f"EMA alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.value: float | None = None
        self.n = 0

    def update(self, values: np.ndarray) -> float | None:
        vals = np.asarray(values, dtype=np.float64).ravel()
        self.n += int(vals.size)
        if self.value is None and vals.size:
            self.value, vals = vals[0], vals[1:]
        if self.value is not None:
            self.value = kernels.ema(vals, self.value, self.alpha)
        return self.value


class DroopWatcher:
    """Droop-precursor detection with hysteresis + incremental PDN.

    An alert is *raised* when the per-cycle current step exceeds
    ``enter_ma`` and *re-armed* only after delta-I falls below
    ``exit_ma`` (default ``exit_frac * enter_ma``).  Hovering at the
    enter threshold therefore produces one alert, not a storm.
    """

    def __init__(
        self,
        pdn: PdnModel | None = None,
        enter_ma: float = 2.0,
        exit_ma: float | None = None,
        exit_frac: float = 0.7,
    ) -> None:
        self.pdn = pdn or PdnModel()
        if enter_ma <= 0:
            raise StreamError("enter threshold must be positive")
        self.enter_ma = float(enter_ma)
        self.exit_ma = (
            float(exit_ma) if exit_ma is not None
            else self.enter_ma * float(exit_frac)
        )
        if self.exit_ma > self.enter_ma:
            raise StreamError(
                "exit threshold must not exceed enter threshold"
            )
        self._last_current: float | None = None
        self._pdn_state: PdnState | None = None
        self._active = False
        self.alerts = 0
        self.alert_cycles = 0
        self.min_voltage = float("inf")
        self.max_delta_i = 0.0

    @property
    def active(self) -> bool:
        return self._active

    def observe(self, power_mw: np.ndarray) -> int:
        """Process one chunk of per-cycle power; return new alert count."""
        power = np.asarray(power_mw, dtype=np.float64).ravel()
        if power.size == 0:
            return 0
        current = power / self.pdn.vdd  # mA
        # delta-I with the carried previous-cycle current; the first
        # cycle ever seen has no predecessor (0 by convention, matching
        # delta_current on a whole trace).
        prev = (
            current[0] if self._last_current is None
            else self._last_current
        )
        di = np.diff(current, prepend=prev)
        self._last_current = float(current[-1])
        self.max_delta_i = max(self.max_delta_i, float(di.max(initial=0.0)))

        if self._pdn_state is None:
            self._pdn_state = self.pdn.equilibrium_state(float(power[0]))
        v, self._pdn_state = self.pdn.step_chunk(power, self._pdn_state)
        self.min_voltage = min(self.min_voltage, float(v.min()))

        self._active, self.alert_cycles, new_alerts = kernels.hysteresis(
            di, self.enter_ma, self.exit_ma, self._active, self.alert_cycles
        )
        self.alerts += new_alerts
        return new_alerts


class BudgetWatcher:
    """Power-budget checks on completed T-cycle window readings."""

    def __init__(
        self,
        budget_mw: float,
        governor=None,
        start_level: int | None = None,
    ) -> None:
        if budget_mw <= 0:
            raise StreamError("power budget must be positive")
        self.budget_mw = float(budget_mw)
        self.governor = governor
        self.dvfs_state = (
            governor.start(start_level) if governor is not None else None
        )
        self.violations = 0
        self.windows_seen = 0

    def observe(self, window_mw: np.ndarray) -> int:
        """Check one chunk of window readings; return new violations."""
        wins = np.asarray(window_mw, dtype=np.float64).ravel()
        self.windows_seen += int(wins.size)
        new = int((wins > self.budget_mw).sum())
        self.violations += new
        if self.governor is not None:
            for w in wins:
                self.governor.step(float(w), self.dvfs_state)
        return new
