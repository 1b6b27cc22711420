"""Lumped power-delivery-network (PDN) model and Ldi/dt droop analysis.

Supports the paper's §8.2: per-cycle current transients (``delta I``) are
the precursors of voltage droops, and an accurate per-cycle OPM can predict
them.  The PDN is the classic series R-L + on-die decap C second-order
system; simulated with a per-cycle forward-Euler discretization (stable for
the default constants, asserted at construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.power import kernels

__all__ = ["PdnModel", "PdnState", "delta_current", "droop_events"]


def delta_current(power: np.ndarray, vdd: float = 0.75) -> np.ndarray:
    """Per-cycle current change ``delta I[i] = I[i] - I[i-1]``.

    ``power`` is a per-cycle power series (mW); current is ``P / Vdd`` in
    mA.  The first element is 0 by convention (no predecessor).
    """
    current = np.asarray(power, dtype=np.float64) / vdd
    out = np.zeros_like(current)
    out[1:] = np.diff(current)
    return out


@dataclass
class PdnState:
    """Continuation state of an incremental PDN simulation.

    Holds the two state variables of the RLC system — regulator-side
    inductor current and on-die decap voltage — so long simulations can
    be advanced chunk by chunk with results bit-identical to one
    whole-trace :meth:`PdnModel.simulate` call.
    """

    i_l: float
    v_c: float


@dataclass
class PdnModel:
    """Series R-L from the regulator plus on-die decap C.

    State equations (per cycle ``dt = 1 / f``)::

        dI_L/dt = (V_reg - V - R * I_L) / L
        dV/dt   = (I_L - I_load) / C

    Attributes use deliberately round numbers; what matters for the
    experiments is a resonant response in the ~10-cycle range, matching the
    paper's claim that Ldi/dt droops develop in <10 cycles.
    """

    vdd: float = 0.75
    r_ohm: float = 2.0e-3
    l_henry: float = 1.2e-11
    c_farad: float = 6.0e-8
    freq_ghz: float = 3.0

    def __post_init__(self) -> None:
        if min(self.r_ohm, self.l_henry, self.c_farad) <= 0:
            raise PowerModelError("PDN R, L, C must be positive")
        if self.freq_ghz <= 0:
            raise PowerModelError("frequency must be positive")
        # Exact (matrix-exponential) discretization of the linear system
        # d/dt [i_L, v_C] = A [i_L, v_C] + B [V_reg, i_load]; stable for
        # any dt, unlike forward Euler on this lightly-damped tank.
        from scipy.linalg import expm

        a = np.array(
            [
                [-self.r_ohm / self.l_henry, -1.0 / self.l_henry],
                [1.0 / self.c_farad, 0.0],
            ]
        )
        b = np.array(
            [[1.0 / self.l_henry, 0.0], [0.0, -1.0 / self.c_farad]]
        )
        ad = expm(a * self.dt)
        # Bd = A^-1 (Ad - I) B (A is invertible: det = 1/(L C) > 0).
        bd = np.linalg.solve(a, (ad - np.eye(2)) @ b)
        self._coef = np.concatenate([ad.ravel(), bd.ravel()])

    @property
    def dt(self) -> float:
        return 1e-9 / self.freq_ghz

    @property
    def resonant_cycles(self) -> float:
        """Resonant period of the LC tank, in clock cycles."""
        period = 2 * np.pi * np.sqrt(self.l_henry * self.c_farad)
        return period / self.dt

    def equilibrium_state(self, power_mw: float = 0.0) -> PdnState:
        """DC operating point for a constant load (start of a stream)."""
        il = float(power_mw) * 1e-3 / self.vdd
        return PdnState(i_l=il, v_c=self.vdd - self.r_ohm * il)

    def step_chunk(
        self, power_mw: np.ndarray, state: PdnState
    ) -> tuple[np.ndarray, PdnState]:
        """Advance the PDN over one power chunk from ``state``.

        Returns the voltage waveform for the chunk and the continuation
        state; splitting a trace into chunks and chaining states is
        bit-identical to :meth:`simulate` on the whole trace.
        """
        power = np.asarray(power_mw, dtype=np.float64)
        if power.ndim != 1:
            raise PowerModelError("power trace must be 1-D")
        i_load = power * 1e-3 / self.vdd  # amps
        v, x0, x1 = kernels.pdn_run(
            i_load, self._coef, self.vdd, state.i_l, state.v_c
        )
        return v, PdnState(i_l=x0, v_c=x1)

    def simulate(self, power_mw: np.ndarray) -> np.ndarray:
        """Supply-voltage waveform (volts) for a per-cycle power trace."""
        power = np.asarray(power_mw, dtype=np.float64)
        if power.ndim != 1:
            raise PowerModelError("power trace must be 1-D")
        # Start at equilibrium for the first cycle's load.
        state = self.equilibrium_state(float(power[0]) if power.size else 0.0)
        v, _state = self.step_chunk(power, state)
        return v

    def droop_magnitude(self, power_mw: np.ndarray) -> float:
        """Worst-case droop below nominal, in mV."""
        v = self.simulate(power_mw)
        return float((self.vdd - v.min()) * 1e3)


def droop_events(
    voltage: np.ndarray, vdd: float = 0.75, threshold_mv: float = 30.0
) -> np.ndarray:
    """Indices of cycles where the supply dips more than ``threshold_mv``."""
    v = np.asarray(voltage, dtype=np.float64)
    return np.nonzero((vdd - v) * 1e3 > threshold_mv)[0]
