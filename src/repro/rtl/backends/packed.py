"""NumPy fallback of the compiled engine: 64 stimulus lanes per uint64 word.

When no C compiler is available, :class:`~repro.rtl.backends.compiled.
CompiledBackend` runs this loop instead of the native kernel.  Values
live in renumbered storage rows (see
:func:`repro.rtl.levelize.compile_packed`), polarity-folded
(``true ^ pol[net]``), so NAND/OR/NOR collapse into the AND-run, XNOR
into the XOR-run, and each MUX into two AND-run product rows plus one
XOR.  Every write target is a contiguous row slice, so the loop contains
no scatter indexing; the whole cycle is executed as a precompiled
micro-program of prebound array views (two variants, one per buffer
parity).  Toggle words are exact because both cycles carry the same
polarity; each cycle they are gathered back into net-id order and
appended to a block buffer, so the lane unpacking runs once per
:data:`REC_BLOCK` cycles on one contiguous array, while the accumulator
reduction (:func:`~repro.rtl.backends.base.acc_reduce`) keeps the
reference engine's exact per-cycle call shape — making every recorded
artifact bit-identical to the uint8 reference.
"""

from __future__ import annotations

import numpy as np

from repro.rtl.backends.base import WORD_ONES, acc_reduce
from repro.rtl.levelize import PackedSchedule
from repro.rtl.trace import pack_lanes, unpack_lanes

__all__ = ["REC_BLOCK", "run_packed"]

#: Cycles buffered before the recording path unpacks a toggle block
#: (amortizes the net-order gather and bit unpacking).
REC_BLOCK = 32


def run_packed(
    psch: PackedSchedule,
    plans: dict,
    v0: np.ndarray,
    stim: np.ndarray,
    cols: np.ndarray | None,
    acc_weights: dict[str, np.ndarray],
    packed_out: np.ndarray | None,
    cols_out: np.ndarray | None,
    acc_out: dict[str, np.ndarray],
) -> np.ndarray:
    """Simulate ``stim`` from the value vector ``v0`` (the
    :meth:`~repro.rtl.backends.base.Backend.run` contract); ``plans``
    caches one :class:`_PackedPlan` per word width across calls."""
    batch, cycles, n_in = stim.shape
    W = (batch + 63) // 64
    plan = plans.get(W)
    if plan is None:
        plan = plans[W] = _PackedPlan(psch, W)
    pol_col = psch.pol[:, None]
    row_of = psch.row_of_net
    # Stored words in storage-row order; virtual MUX product rows and
    # alias rows are recomputed before use, so zeros are fine there.
    stored = np.zeros((psch.n_rows, batch), dtype=np.uint8)
    stored[row_of] = v0 ^ pol_col
    init_w = pack_lanes(stored)
    bufs = plan.bufs
    np.copyto(bufs[1], init_w)  # v_prev of cycle 0
    bufs[0][psch.sl_const] = init_w[psch.sl_const]  # written once
    # Stimulus as lane words, cycle-major: (cycles, n_in, W).
    stim_w = pack_lanes(
        np.ascontiguousarray(np.transpose(stim, (1, 2, 0)))
    )
    progs = plan.progs
    in_views = plan.in_views
    tr = plan.tog_row
    alias_src = psch.alias_src
    has_alias = alias_src.size > 0
    sl_alias = psch.sl_alias
    sl_clk_free = psch.sl_clk_free
    sl_clk_g = psch.sl_clk_gated
    has_clk_free = sl_clk_free.stop > sl_clk_free.start
    has_clk_g = sl_clk_g.stop > sl_clk_g.start
    need_dense = packed_out is not None or bool(acc_weights)
    # The per-cycle gather restores net-id order (all nets when the
    # dense block is needed, just the selected rows otherwise), so
    # the flush unpacks one contiguous block per REC_BLOCK cycles.
    if need_dense:
        rec_rows = row_of.astype(np.intp)
    elif cols is not None:
        rec_rows = row_of[cols].astype(np.intp)
    else:
        rec_rows = None
    tb = None
    if rec_rows is not None:
        tb = np.empty(
            (min(REC_BLOCK, max(cycles, 1)), rec_rows.size, W),
            dtype=np.uint64,
        )
    acc_items = list(acc_weights.items())
    j = 0  # cycles buffered in the toggle block
    blk0 = 0  # first cycle index of the current block

    for i in range(cycles):
        p = i & 1
        vals = bufs[p]
        if n_in:
            np.copyto(in_views[p], stim_w[i])
        for code, a, b, o in progs[p]:
            if code == 0:
                np.bitwise_xor(a, b, o)
            elif code == 1:
                np.bitwise_and(a, b, o)
            elif code == 2:
                a.take(b, 0, o)
            else:
                np.copyto(o, a)
        if tb is None:
            continue
        # Toggles in storage-row order (polarity cancels in the
        # XOR); alias rows mirror their source, CLK rows report the
        # enable; then one gather into the net-ordered block.
        np.bitwise_xor(vals, bufs[1 - p], tr)
        if has_alias:
            tr.take(alias_src, 0, tr[sl_alias])
        if has_clk_free:
            tr[sl_clk_free] = WORD_ONES
        if has_clk_g:
            tr[sl_clk_g] = vals[sl_clk_g]
        tr.take(rec_rows, 0, tb[j])
        j += 1
        if j == tb.shape[0] or i == cycles - 1:
            # Flush: one contiguous unpack per block, then record
            # with the reference engine's exact per-cycle GEMV call
            # shape.
            dense = unpack_lanes(tb[:j], batch)
            if need_dense:
                if packed_out is not None:
                    packed_out[blk0:blk0 + j] = np.packbits(
                        dense, axis=1
                    )
                if cols_out is not None:
                    cols_out[:, blk0:blk0 + j, :] = dense[
                        :, cols
                    ].transpose(2, 0, 1)
                for name, w in acc_items:
                    o = acc_out[name]
                    for k in range(j):
                        o[:, blk0 + k] = acc_reduce(w, dense[k])
            else:
                cols_out[:, blk0:blk0 + j, :] = dense.transpose(
                    2, 0, 1
                )
            blk0 = i + 1
            j = 0

    fv = bufs[(cycles - 1) & 1] if cycles else bufs[1]
    if has_alias:
        np.take(fv, alias_src, axis=0, out=fv[sl_alias])
    final = unpack_lanes(np.take(fv, row_of, axis=0), batch)
    return final ^ pol_col


class _PackedPlan:
    """Per-word-width execution state for :func:`run_packed`.

    Holds the double-buffered value arrays plus, for each buffer parity,
    a *micro-program*: a flat tuple of ``(opcode, a, b, out)`` entries
    whose operands are prebound array views (opcodes: 0 = XOR, 1 = AND,
    2 = take, 3 = copy).  Binding every slice once per word width — the
    buffers are reused across runs — removes all indexing overhead from
    the cycle loop.
    """

    def __init__(self, psch: PackedSchedule, W: int) -> None:
        nr = psch.n_rows
        self.bufs = (
            np.zeros((nr, W), dtype=np.uint64),
            np.zeros((nr, W), dtype=np.uint64),
        )
        self.scratch = np.empty((psch.max_gather, W), dtype=np.uint64)
        n_gated = psch.sl_gated.stop - psch.sl_gated.start
        self.en_buf = np.empty((n_gated, W), dtype=np.uint64)
        self.d_buf = np.empty((n_gated, W), dtype=np.uint64)
        self.tog_row = np.empty((nr, W), dtype=np.uint64)
        self.progs = (
            self._build(psch, self.bufs[0], self.bufs[1]),
            self._build(psch, self.bufs[1], self.bufs[0]),
        )
        self.in_views = (
            self.bufs[0][psch.sl_inputs],
            self.bufs[1][psch.sl_inputs],
        )

    def _build(
        self, psch: PackedSchedule, vals: np.ndarray, v_prev: np.ndarray
    ) -> tuple:
        XOR, AND, TAKE, COPY = 0, 1, 2, 3
        P: list[tuple] = []
        # 1. register capture (previous-cycle D and enables).
        if psch.free_d.size:
            o = vals[psch.sl_free]
            P.append((TAKE, v_prev, psch.free_d, o))
            if psch.free_has_inv:
                P.append((XOR, o, psch.free_d_inv, o))
        if psch.gated_d.size:
            en, d = self.en_buf, self.d_buf
            P.append((TAKE, v_prev, psch.gated_en, en))
            if psch.gated_en_has_inv:
                P.append((XOR, en, psch.gated_en_inv, en))
            P.append((TAKE, v_prev, psch.gated_d, d))
            if psch.gated_d_has_inv:
                P.append((XOR, d, psch.gated_d_inv, d))
            q = v_prev[psch.sl_gated]
            # hold-or-capture without a select: q ^ (en & (d ^ q))
            P.append((XOR, d, q, d))
            P.append((AND, d, en, d))
            P.append((XOR, d, q, d))
            P.append((COPY, d, None, vals[psch.sl_gated]))
        # 2. comb readers of a CLK net must observe its previous-cycle
        # value (the uint8 engine's copyto semantics).  Stimulus rows are
        # written by the cycle loop before the program runs.
        if psch.sl_clk_all.stop > psch.sl_clk_all.start:
            P.append(
                (COPY, v_prev[psch.sl_clk_all], None,
                 vals[psch.sl_clk_all])
            )
        # 3. fused combinational evaluation, one level at a time.
        for L in psch.levels:
            g = self.scratch[: L.width]
            P.append((TAKE, vals, L.gather, g))
            if L.has_inv:
                P.append((XOR, g, L.inv, g))
            if L.n_and:
                P.append(
                    (AND, g[L.sl_and_a], g[L.sl_and_b], vals[L.out_and])
                )
            if L.n_xor:
                P.append(
                    (XOR, g[L.sl_xor_a], g[L.sl_xor_b], vals[L.out_xor])
                )
            if L.n_copy:
                P.append((COPY, g[L.sl_copy], None, vals[L.out_copy]))
            if L.n_mux:
                P.append(
                    (XOR, vals[L.sl_u], vals[L.sl_v], vals[L.out_mux])
                )
        # 4. clock nets.
        if psch.sl_clk_free.stop > psch.sl_clk_free.start:
            P.append((COPY, WORD_ONES, None, vals[psch.sl_clk_free]))
        if psch.clk_g_en.size:
            o = vals[psch.sl_clk_gated]
            P.append((TAKE, v_prev, psch.clk_g_en, o))
            if psch.clk_g_has_inv:
                P.append((XOR, o, psch.clk_g_en_inv, o))
        return tuple(P)
