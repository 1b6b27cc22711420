"""The compiled engine: the packed micro-program run by a native kernel.

The ``"compiled"`` engine (the default) lowers the netlist to a
polarity-folded, renumbered micro-program over 64-lane uint64 words
(:func:`repro.rtl.levelize.compile_packed`) and executes it as flat op
tables in a single C cycle loop — toggle recording and the accumulator
reduction included — instead of one NumPy ufunc call per program entry.
That removes the per-op dispatch overhead *and* the dominant costs of
the NumPy recording path (lane unpacking and the per-cycle reduction),
which is where the ≥10x over the uint8 reference comes from.

The C kernel (:mod:`repro.rtl.backends.cc`) is compiled at runtime with
the system compiler.  When :func:`~repro.rtl.backends.cc.load_kernel`
finds no working compiler, the same micro-program runs as a NumPy loop
(:func:`repro.rtl.backends.packed.run_packed`) instead.  Both paths are
bit-identical to the uint8 reference; the choice only affects
throughput.
"""

from __future__ import annotations

import numpy as np

from repro.rtl.backends import cc as _cc
from repro.rtl.backends.base import Backend, register_backend
from repro.rtl.backends.packed import run_packed
from repro.rtl.backends.tables import CompiledTables, build_tables
from repro.rtl.levelize import PackedSchedule, compile_packed
from repro.rtl.trace import pack_lanes, unpack_lanes

__all__ = ["CompiledBackend"]


@register_backend
class CompiledBackend(Backend):
    """Packed-lane engine: native C kernel, NumPy loop without a compiler."""

    name = "compiled"
    requires_little_endian = True

    def __init__(self, netlist, schedule) -> None:
        super().__init__(netlist, schedule)
        self.packed_schedule: PackedSchedule = compile_packed(
            netlist, schedule
        )
        #: ``"cc"`` when the C kernel runs, ``"numpy"`` for the fallback.
        self.impl = "numpy" if _cc.load_kernel() is None else "cc"
        self._tables: CompiledTables | None = (
            build_tables(self.packed_schedule) if self.impl == "cc" else None
        )
        self._plans: dict = {}  # NumPy-loop state, per word width

    def run(
        self,
        stim: np.ndarray,
        cols: np.ndarray | None,
        acc_weights: dict[str, np.ndarray],
        packed_out: np.ndarray | None,
        cols_out: np.ndarray | None,
        acc_out: dict[str, np.ndarray],
        init_values: np.ndarray | None,
    ) -> np.ndarray:
        psch = self.packed_schedule
        batch, cycles, n_in = stim.shape
        if init_values is not None:
            v0 = np.asarray(init_values, dtype=np.uint8)
        else:
            v0 = self.initial_values(batch)
        tab = self._tables
        if tab is None:
            return run_packed(
                psch, self._plans, v0, stim, cols, acc_weights,
                packed_out, cols_out, acc_out,
            )
        W = (batch + 63) // 64
        nr = tab.n_rows
        pol_col = psch.pol[:, None]
        stored = np.zeros((nr, batch), dtype=np.uint8)
        stored[psch.row_of_net] = v0 ^ pol_col
        init_w = pack_lanes(stored)
        arena = np.zeros((tab.arena_rows, W), dtype=np.uint64)
        arena[nr:2 * nr] = init_w  # v_prev of cycle 0
        arena[:nr][psch.sl_const] = init_w[psch.sl_const]
        stim_w = pack_lanes(
            np.ascontiguousarray(np.transpose(stim, (1, 2, 0)))
        )
        n_acc = len(acc_weights)
        acc_names = list(acc_weights)
        if n_acc:
            acc_mat = np.stack([acc_weights[k] for k in acc_names])
            acc_res = np.empty((n_acc, batch, cycles), dtype=np.float64)
        else:
            acc_mat = np.zeros((0, 0), dtype=np.float64)
            acc_res = np.zeros(0, dtype=np.float64)
        if cols is not None:
            col_rows = tab.net_rows[cols]
        else:
            col_rows = np.zeros(0, dtype=np.int64)
        n_cols = col_rows.size
        has_trace = packed_out is not None
        nbytes = packed_out.shape[1] if has_trace else 0
        trace_buf = (
            packed_out if has_trace else np.zeros(0, dtype=np.uint8)
        )
        cols_buf = (
            cols_out if cols_out is not None else np.zeros(0, np.uint8)
        )
        need_tog = has_trace or n_acc > 0 or n_cols > 0
        par = np.asarray(
            [nr, W, cycles, batch, n_in, tab.in_row, psch.n_nets, n_acc,
             int(has_trace), nbytes, n_cols, tab.alias_src.size,
             tab.alias_start, tab.clk_free_start, tab.n_clk_free,
             tab.clk_g_start, tab.n_clk_g, int(need_tog)],
            dtype=np.int64,
        )
        tog = np.zeros(nr * W, dtype=np.uint64)
        lane_sum = np.zeros(W * 64, dtype=np.float64)

        if cycles:
            _cc.run_cycles_cc(
                par, arena.ravel(), tog, tab.prog0, tab.prog1,
                tab.idx_pool, tab.mask_pool, stim_w.ravel(),
                tab.net_rows, tab.alias_src,
                acc_mat.ravel(), acc_res.ravel(), lane_sum,
                col_rows, cols_buf.ravel(), trace_buf.ravel(),
            )

        for a_i, name in enumerate(acc_names):
            acc_out[name][:] = acc_res[a_i]
        p_last = (cycles - 1) & 1 if cycles else 1
        fv = arena[p_last * nr:(p_last + 1) * nr]
        if tab.alias_src.size:
            np.take(fv, tab.alias_src, axis=0, out=fv[psch.sl_alias])
        final = unpack_lanes(np.take(fv, psch.row_of_net, axis=0), batch)
        return final ^ pol_col
