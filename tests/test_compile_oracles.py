"""The array compile step against its per-net reference oracles.

:func:`repro.rtl.levelize.levelize` and
:func:`repro.power.analyzer.annotate_capacitance` are array code; the
loops they replaced live on in ``tests/oracles.py``.  Every schedule
field, every evaluation group and the capacitance vector must match the
oracle exactly — values, shapes and dtypes.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import build_core
from repro.power.analyzer import annotate_capacitance
from repro.rtl import Netlist, Op
from repro.rtl.levelize import levelize
from repro.uarch import A77_LIKE, N1_LIKE

from helpers import random_netlist
from oracles import annotate_capacitance_reference, levelize_reference


def _assert_same_array(want: np.ndarray, got: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_matches_oracle(nl: Netlist) -> None:
    want, got = levelize_reference(nl), levelize(nl)
    for f in fields(want):
        x, y = getattr(want, f.name), getattr(got, f.name)
        if f.name == "groups":
            assert len(y) == len(x)
            for g, h in zip(x, y):
                assert type(h.op) is Op and h.op == g.op
                for k in ("out", "a", "b", "c"):
                    _assert_same_array(getattr(g, k), getattr(h, k))
        elif isinstance(x, np.ndarray):
            _assert_same_array(x, y)
        else:
            assert type(y) is type(x) and y == x, f.name
    _assert_same_array(
        annotate_capacitance_reference(nl), annotate_capacitance(nl)
    )


@pytest.mark.parametrize("params", [N1_LIKE, A77_LIKE], ids=["n1", "a77"])
def test_cores_match_oracle(params):
    _assert_matches_oracle(build_core(params).netlist)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_random_netlists_match_oracle(seed):
    _assert_matches_oracle(random_netlist(seed, n_gates=60))


def test_empty_netlist_matches_oracle():
    _assert_matches_oracle(Netlist("empty"))


def test_mux_const_gated_domain_matches_oracle():
    nl = Netlist("mixed")
    en = nl.input_bit("en")
    s, a = nl.input_bit("s"), nl.input_bit("a")
    zero, one = nl.const(0), nl.const(1)
    free = nl.clock_domain("free")
    gated = nl.clock_domain("gated", enable=en)
    m1 = nl.mux(s, a, zero)
    m2 = nl.mux(m1, one, nl.not_(a))
    r_gated = nl.reg(m2, gated, init=1)
    r_free = nl.reg(nl.xnor(r_gated, m1), free)
    nl.buf(free.clk_net)  # reads the previous-cycle clock
    nl.mux(r_free, nl.nand(r_gated, one), gated.clk_net)
    sched = levelize(nl)
    assert sched.reg_en.tolist() == [en, -1]
    assert sched.const_vals.tolist() == [0, 1]
    _assert_matches_oracle(nl)
