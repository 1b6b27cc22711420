"""Runtime-C kernels of the per-cycle power read path (DESIGN.md §9).

The served GEMV (the OPM's weight LUT + adder tree on ``np.packbits``
toggles, exact in wrapping int64) and the per-cycle EMA, PDN and
droop-hysteresis recurrences, built by
:func:`repro.rtl.backends.cc.load_kernel` with ``-ffp-contract=off`` in
the operation order of the Python loops here, which are the
no-compiler fallback and the tests' reference.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.errors import OpmError
from repro.rtl.backends import cc

__all__ = ["ema", "hysteresis", "lut_gemv", "pdn_run"]

_SOURCE = r"""
#include <stdint.h>

void repro_lut_gemv(const uint8_t *packed, int64_t rows, int64_t nb,
                    const int64_t *lut, int64_t intercept, int64_t *out) {
    for (int64_t r = 0; r < rows; r++) {
        uint64_t acc = (uint64_t)intercept; /* unsigned: wraps, no UB */
        const uint8_t *p = packed + r * nb;
        for (int64_t b = 0; b < nb; b++) acc += (uint64_t)lut[256 * b + p[b]];
        out[r] = (int64_t)acc;
    }
}

double repro_ema(const double *x, int64_t n, double v, double a) {
    for (int64_t i = 0; i < n; i++) v = v + a * (x[i] - v);
    return v;
}

/* c: Ad then Bd, row-major; st: the state x0, x1, updated in place. */
void repro_pdn(const double *u, int64_t n, const double *c, double vreg,
               double *st, double *v) {
    double x0 = st[0], x1 = st[1];
    for (int64_t k = 0; k < n; k++) {
        const double nx0 = c[0] * x0 + c[1] * x1 + c[4] * vreg + c[5] * u[k];
        x1 = c[2] * x0 + c[3] * x1 + c[6] * vreg + c[7] * u[k];
        x0 = nx0;
        v[k] = x1;
    }
    st[0] = x0;
    st[1] = x1;
}

/* st: active flag and alert cycles, updated in place. */
int64_t repro_hysteresis(const double *di, int64_t n, double enter_ma,
                         double exit_ma, int64_t *st) {
    int64_t alerts = 0;
    for (int64_t i = 0; i < n; i++) {
        if (st[0]) {
            st[1]++;
            st[0] = !(di[i] < exit_ma);
        } else if (di[i] > enter_ma) {
            st[0] = 1, st[1]++, alerts++;
        }
    }
    return alerts;
}
"""

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_SIGS = {
    "repro_lut_gemv": (None, [_P, _I, _I, _P, _I, _P]),
    "repro_ema": (_D, [_P, _I, _D, _D]),
    "repro_pdn": (None, [_P, _I, _P, _D, _P, _P]),
    "repro_hysteresis": (_I, [_P, _I, _D, _D, _P]),
}


def lut_gemv(packed: np.ndarray, int_weights, int_intercept) -> np.ndarray:
    """``X.astype(int64) @ int_weights + int_intercept`` for
    ``packed = np.packbits(X, axis=1)``, ``X`` binary of width
    ``len(int_weights)``."""
    w = np.ascontiguousarray(int_weights, dtype=np.int64)
    q = int(w.size)
    nb = (q + 7) // 8
    if packed.dtype != np.uint8 or packed.ndim != 2 or packed.shape[1] != nb:
        raise OpmError(f"expected (rows, {nb}) packed uint8 toggles, got "
                       f"{packed.shape} {packed.dtype}")
    lib = cc.load_kernel(_SOURCE, _SIGS)
    if lib is None:
        x = np.unpackbits(packed, axis=1, count=q)
        return x.astype(np.int64) @ w + np.int64(int_intercept)
    # lut[b, byte]: the sum of the weights byte selects in group b, built
    # by doubling (byte bit j is column 8b+7-j); int64 adds wrap.
    wp = np.zeros(8 * nb, dtype=np.int64)
    wp[:q] = w
    lut = np.zeros((nb, 256), dtype=np.int64)
    for j in range(8):
        lut[:, 1 << j:2 << j] = lut[:, :1 << j] + wp[7 - j::8, None]
    p = np.ascontiguousarray(packed)
    out = np.empty(p.shape[0], dtype=np.int64)
    lib.repro_lut_gemv(p.ctypes.data, p.shape[0], nb, lut.ctypes.data,
                       int(int_intercept), out.ctypes.data)
    return out


def ema(x: np.ndarray, v: float, alpha: float) -> float:
    """Fold ``v = v + alpha * (x - v)`` over the float64 values ``x``."""
    lib = cc.load_kernel(_SOURCE, _SIGS)
    if lib is None:
        for xi in x:
            v = v + alpha * (xi - v)
        return float(v)
    x = np.ascontiguousarray(x, dtype=np.float64)
    return lib.repro_ema(x.ctypes.data, x.size, v, alpha)


def pdn_run(u: np.ndarray, coef: np.ndarray, vreg: float, x0: float,
            x1: float) -> tuple[np.ndarray, float, float]:
    """Advance the discretized PDN (``coef``: ``Ad`` then ``Bd``,
    row-major) over load currents ``u``; returns the per-cycle decap
    voltage and the final ``(x0, x1)``."""
    v = np.empty(u.size, dtype=np.float64)
    lib = cc.load_kernel(_SOURCE, _SIGS)
    if lib is None:
        a00, a01, a10, a11, b00, b01, b10, b11 = coef
        for k in range(u.size):
            u1 = u[k]
            nx0 = a00 * x0 + a01 * x1 + b00 * vreg + b01 * u1
            nx1 = a10 * x0 + a11 * x1 + b10 * vreg + b11 * u1
            x0, x1 = nx0, nx1
            v[k] = x1
        return v, float(x0), float(x1)
    u = np.ascontiguousarray(u, dtype=np.float64)
    c = np.ascontiguousarray(coef, dtype=np.float64)
    st = np.array([x0, x1], dtype=np.float64)
    lib.repro_pdn(u.ctypes.data, u.size, c.ctypes.data, vreg,
                  st.ctypes.data, v.ctypes.data)
    return v, float(st[0]), float(st[1])


def hysteresis(di: np.ndarray, enter_ma: float, exit_ma: float,
               active: bool, cycles: int) -> tuple[bool, int, int]:
    """Droop alerts over current steps ``di``: one is raised when
    ``di > enter_ma`` while inactive; an active alert counts every cycle
    and clears once ``di < exit_ma``.  Returns ``(active, alert cycles,
    new alerts)``."""
    lib = cc.load_kernel(_SOURCE, _SIGS)
    if lib is None:
        alerts = 0
        for x in di:
            if active:
                cycles += 1
                if x < exit_ma:
                    active = False
            elif x > enter_ma:
                active = True
                cycles += 1
                alerts += 1
        return active, cycles, alerts
    di = np.ascontiguousarray(di, dtype=np.float64)
    st = np.array([active, cycles], dtype=np.int64)
    alerts = lib.repro_hysteresis(di.ctypes.data, di.size, enter_ma,
                                  exit_ma, st.ctypes.data)
    return bool(st[0]), int(st[1]), alerts
