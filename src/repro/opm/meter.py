"""Bit-exact behavioural model of the OPM datapath (Fig. 8).

Models exactly what the hardware computes: integer weights conditionally
accumulated on per-cycle toggle bits, a constant intercept term added each
cycle, a T-cycle integer accumulator, and division by T realized by
dropping the low ``log2(T)`` bits (T restricted to powers of two, §4.5).
Useful both for the Fig. 15(b) accuracy/area sweep (fast) and as the
reference the gate-level OPM netlist is verified against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OpmError
from repro.opm.quantize import QuantizedModel

__all__ = ["OpmMeter", "OpmStream"]


def _is_pow2(t: int) -> bool:
    return t >= 1 and (t & (t - 1)) == 0


@dataclass
class OpmMeter:
    """Behavioural OPM for one quantized model and window size T."""

    qmodel: QuantizedModel
    t: int = 1

    def __post_init__(self) -> None:
        if not _is_pow2(self.t):
            raise OpmError(
                f"T must be a power of two for bit-drop division, got "
                f"{self.t}"
            )

    @property
    def latency_cycles(self) -> int:
        """Input registration + output registration (§7.5: 2 cycles)."""
        return 2

    def per_cycle(self, x_proxies: np.ndarray) -> np.ndarray:
        """Per-cycle integer accumulator inputs (before T-windowing).

        These are the values entering the Fig. 8 accumulator each cycle:
        ``weights . toggles + intercept`` in integer arithmetic.  Accepts
        an empty ``(0, Q)`` chunk (returns an empty array) so streaming
        callers can pass short or empty final chunks through unchanged.
        """
        X = np.asarray(x_proxies)
        if X.ndim != 2 or X.shape[1] != self.qmodel.q:
            raise OpmError(
                f"expected (N, {self.qmodel.q}) proxy toggles, got {X.shape}"
            )
        if X.size and not ((X == 0) | (X == 1)).all():
            raise OpmError("OPM inputs must be binary toggle bits")
        return (
            X.astype(np.int64) @ self.qmodel.int_weights
            + self.qmodel.int_intercept
        )

    def accumulate(self, x_proxies: np.ndarray) -> np.ndarray:
        """Raw integer OPM outputs, one per complete T-cycle window.

        The returned integers are what the ``out`` register of Fig. 8
        holds after the bit-drop division.
        """
        per_cycle = self.per_cycle(x_proxies)
        n = (per_cycle.size // self.t) * self.t
        if n == 0:
            raise OpmError(
                f"trace of {per_cycle.size} cycles shorter than T={self.t}"
            )
        sums = per_cycle[:n].reshape(-1, self.t).sum(axis=1)
        # Divide by T by dropping log2(T) bits (arithmetic shift).
        shift = int(np.log2(self.t))
        return sums >> shift

    def read(self, x_proxies: np.ndarray) -> np.ndarray:
        """Windowed power estimates in mW (integer outputs x step)."""
        return self.accumulate(x_proxies).astype(np.float64) * (
            self.qmodel.step
        )

    def stream(self) -> "OpmStream":
        """A stateful chunk-by-chunk view of this meter.

        The returned :class:`OpmStream` carries the open T-cycle window
        across chunk boundaries, so feeding a trace in arbitrary chunks
        produces bit-identical window outputs to :meth:`accumulate` on
        the whole trace.
        """
        return OpmStream(self)

    def max_abs_accumulator(self, x_proxies: np.ndarray) -> int:
        """Largest |value| seen in the T-cycle accumulator — must fit in
        :meth:`QuantizedModel.accumulator_bits`, asserted in tests."""
        X = np.asarray(x_proxies).astype(np.int64)
        per_cycle = X @ self.qmodel.int_weights + self.qmodel.int_intercept
        n = (per_cycle.size // self.t) * self.t
        sums = np.cumsum(
            per_cycle[:n].reshape(-1, self.t), axis=1
        )
        return int(np.abs(sums).max(initial=0))


class OpmStream:
    """Incremental T-cycle windowing over per-cycle OPM values.

    Mirrors the hardware exactly: the accumulator register persists
    between chunks, so chunk boundaries are invisible.  ``push`` accepts
    raw proxy-toggle chunks; ``push_per_cycle`` accepts precomputed
    per-cycle integers (the batched-inference path, where one GEMV serves
    many streams).  A trailing partial window is held pending — never
    emitted — matching :meth:`OpmMeter.accumulate`'s drop of incomplete
    windows.
    """

    def __init__(self, meter: OpmMeter) -> None:
        self.meter = meter
        self._partial = 0  # running sum of the open window
        self._pending = 0  # cycles currently in the open window
        self.cycles_in = 0
        self.windows_out = 0

    @property
    def pending_cycles(self) -> int:
        """Cycles buffered in the open (incomplete) window."""
        return self._pending

    def push(self, x_proxies: np.ndarray) -> np.ndarray:
        """Feed one toggle chunk; return completed raw window outputs."""
        return self.push_per_cycle(self.meter.per_cycle(x_proxies))

    def push_per_cycle(self, per_cycle: np.ndarray) -> np.ndarray:
        """Feed precomputed per-cycle integers; return window outputs."""
        vals = np.asarray(per_cycle, dtype=np.int64).ravel()
        self.cycles_in += int(vals.size)
        t = self.meter.t
        shift = int(np.log2(t))
        out: list[int] = []
        if self._pending:
            take = min(t - self._pending, vals.size)
            self._partial += int(vals[:take].sum())
            self._pending += take
            vals = vals[take:]
            if self._pending == t:
                # Python's >> floors like the int64 arithmetic shift.
                out.append(self._partial >> shift)
                self._partial = 0
                self._pending = 0
        n_full = (vals.size // t) * t
        full: np.ndarray | None = None
        if n_full:
            full = vals[:n_full].reshape(-1, t).sum(axis=1) >> shift
        rem = vals[n_full:]
        if rem.size:
            self._partial = int(rem.sum())
            self._pending = int(rem.size)
        head = np.asarray(out, dtype=np.int64)
        windows = head if full is None else np.concatenate([head, full])
        self.windows_out += int(windows.size)
        return windows

    def read_per_cycle(self, per_cycle: np.ndarray) -> np.ndarray:
        """Convert per-cycle integers to mW (same scale as ``read``)."""
        return np.asarray(per_cycle, dtype=np.float64) * self.meter.qmodel.step

    def read_windows(self, windows: np.ndarray) -> np.ndarray:
        """Convert raw window outputs to mW (same scale as ``read``)."""
        return np.asarray(windows, dtype=np.float64) * self.meter.qmodel.step
