"""Per-net reference implementations of the netlist compile step.

These are the straightforward loops that :func:`repro.rtl.levelize.levelize`
and :func:`repro.power.analyzer.annotate_capacitance` replace with array
code.  The tests compare the two field by field (values *and* dtypes), so
any divergence of the vectorized compile shows up here first.
"""

from __future__ import annotations

import numpy as np

from repro.power.liberty import DEFAULT_TECH, TechParams
from repro.rtl.cells import CELL_LIBRARY, EVAL_OPS, N_FANIN, Op
from repro.rtl.levelize import EvalGroup, LevelSchedule
from repro.rtl.netlist import NO_NET, Netlist


def levelize_reference(netlist: Netlist) -> LevelSchedule:
    """One forward pass in id order, then per-(level, op) buckets."""
    netlist.validate()
    n = netlist.n_nets
    ops = netlist.ops_array()
    fanin = netlist.fanin_array() if n else np.zeros((0, 3), np.int32)

    levels = np.zeros(n, dtype=np.int32)
    eval_op_set = {int(o) for o in EVAL_OPS}
    # Ids are topological for combinational logic.
    for i in range(n):
        op = ops[i]
        if op not in eval_op_set:
            continue
        nf = N_FANIN[Op(op)]
        lv = 0
        for k in range(nf):
            f = fanin[i, k]
            if f != NO_NET:
                lv = max(lv, int(levels[f]))
        levels[i] = lv + 1

    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        if ops[i] in eval_op_set:
            buckets.setdefault((int(levels[i]), int(ops[i])), []).append(i)

    groups: list[EvalGroup] = []
    for (lv, op_i) in sorted(buckets):
        ids = np.asarray(buckets[(lv, op_i)], dtype=np.int32)
        fa = fanin[ids]
        a = fa[:, 0].copy()
        b = np.where(fa[:, 1] == NO_NET, 0, fa[:, 1]).astype(np.int32)
        c = np.where(fa[:, 2] == NO_NET, 0, fa[:, 2]).astype(np.int32)
        groups.append(EvalGroup(op=Op(op_i), out=ids, a=a, b=b, c=c))

    reg_ids = np.asarray(
        [i for i in range(n) if ops[i] == Op.REG], dtype=np.int32
    )
    reg_d = fanin[reg_ids, 0] if reg_ids.size else np.zeros(0, np.int32)
    domains = netlist.reg_domain_array()
    reg_en = np.full(reg_ids.size, NO_NET, dtype=np.int32)
    for k, rid in enumerate(reg_ids):
        dom = netlist.domains[int(domains[rid])]
        if dom.enable is not None:
            reg_en[k] = dom.enable
    reg_init = (
        netlist.reg_init_array()[reg_ids]
        if reg_ids.size
        else np.zeros(0, np.uint8)
    )

    clk_out = np.asarray(
        [d.clk_net for d in netlist.domains], dtype=np.int32
    )
    clk_en = np.asarray(
        [NO_NET if d.enable is None else d.enable for d in netlist.domains],
        dtype=np.int32,
    )
    const_ids = np.asarray(
        [i for i in range(n) if ops[i] in (Op.CONST0, Op.CONST1)],
        dtype=np.int32,
    )
    const_vals = np.asarray(
        [1 if ops[i] == Op.CONST1 else 0 for i in const_ids], dtype=np.uint8
    )
    input_ids = np.asarray(
        [i for i in range(n) if ops[i] == Op.INPUT], dtype=np.int32
    )

    return LevelSchedule(
        groups=groups,
        levels=levels,
        reg_out=reg_ids,
        reg_d=reg_d.astype(np.int32),
        reg_en=reg_en,
        reg_init=reg_init,
        clk_out=clk_out,
        clk_en=clk_en,
        input_ids=input_ids,
        const_ids=const_ids,
        const_vals=const_vals,
        max_level=int(levels.max()) if n else 0,
    )


def annotate_capacitance_reference(
    netlist: Netlist, tech: TechParams = DEFAULT_TECH
) -> np.ndarray:
    """Per-net library lookups, then the fanout and clock-tree loads."""
    n = netlist.n_nets
    ops = netlist.ops_array()
    cap = np.zeros(n, dtype=np.float64)
    for i in range(n):
        cap[i] = CELL_LIBRARY[Op(ops[i])].out_cap
    cap += tech.wire_cap_base

    fanin = netlist.fanin_array() if n else np.zeros((0, 3), np.int32)
    in_caps = np.array(
        [CELL_LIBRARY[Op(op)].in_cap for op in ops], dtype=np.float64
    )
    for col in range(3):
        src = fanin[:, col]
        valid = src >= 0
        if valid.any():
            np.add.at(cap, src[valid], in_caps[valid])
    cap += tech.wire_cap_per_fanout * netlist.fanout_counts()

    domains = netlist.reg_domain_array()
    for dom in netlist.domains:
        n_regs = int(np.count_nonzero((domains >= 0) & (domains == dom.index)))
        cap[dom.clk_net] += tech.clk_pin_cap * n_regs * tech.clk_tree_factor
    return cap
