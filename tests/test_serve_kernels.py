"""The serving read path's compiled kernels vs their references.

:mod:`repro.power.kernels` holds four loops that run once per served
chunk: the packed-toggle LUT GEMV, the EMA, the PDN state update and
the droop-alert hysteresis.  Every case here runs twice, on the
compiled C path and with ``cc.load_kernel`` forced to ``None`` (the
no-compiler fallback):

* the GEMV must equal ``X.astype(int64) @ w + b`` exactly, wrapping
  included;
* the recurrences, driven through their public classes in arbitrary
  chunk splits, must equal the Python loops (the fallback, run over the
  whole trace at once) bit for bit, compared with ``tobytes``.

NaN is kept out of the float domain on purpose: C and NumPy can give
NaNs of different sign for ``inf - inf``, and a served reading is
``int * step``, always finite.  Values are bounded by 1e300 so that no
difference of two inputs overflows to ``inf`` either.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.power import PdnModel, kernels
from repro.rtl.backends import cc
from repro.serve.shard import pack_toggles, serve_gemv_task
from repro.stream.aggregate import DroopWatcher, EmaTracker


@pytest.fixture(params=["cc", "fallback"])
def path(request):
    """Run the test body on the C kernels, then on the Python loops."""
    if request.param == "fallback":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc, "load_kernel", lambda *a, **k: None)
            yield request.param
        return
    if cc.load_kernel(kernels._SOURCE, kernels._SIGS) is None:
        pytest.skip("no working C compiler on this host")
    yield request.param


def _reference(fn, *args):
    """``fn(*args)`` on the Python loops, whatever the path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "load_kernel", lambda *a, **k: None)
        return fn(*args)


# --------------------------------------------------------------------- #
# GEMV
# --------------------------------------------------------------------- #
_I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("q", [1, 7, 8, 9, 512, 513])
@pytest.mark.parametrize("rows", [0, 1, 37])
@pytest.mark.parametrize("weights", ["small", "negative", "extreme"])
def test_lut_gemv_equals_int64_matmul(path, q, rows, weights):
    rng = np.random.default_rng(q * 1000 + rows)
    x = (rng.random((rows, q)) < 0.5).astype(np.uint8)
    if weights == "small":
        w, b = rng.integers(0, 512, size=q), int(rng.integers(0, 1000))
    elif weights == "negative":
        w, b = rng.integers(-512, 512, size=q), -77
    else:  # int64-extreme: the partial sums wrap around
        w = rng.choice([_I64.min, _I64.max, _I64.max - 1], size=q)
        b = int(_I64.max)
    expect = x.astype(np.int64) @ w + np.int64(b)
    got = serve_gemv_task((w, b, pack_toggles([x])))
    assert got.dtype == np.int64
    assert got.tobytes() == expect.tobytes()


def test_lut_gemv_of_stacked_blocks(path):
    rng = np.random.default_rng(5)
    mats = [
        (rng.random((n, 13)) < 0.3).astype(np.uint8) for n in (3, 1, 8)
    ]
    w = rng.integers(-100, 100, size=13)
    expect = np.concatenate(mats).astype(np.int64) @ w + 9
    assert serve_gemv_task((w, 9, pack_toggles(mats))).tolist() == (
        expect.tolist()
    )


def test_lut_gemv_rejects_wrong_width():
    from repro.errors import OpmError

    w = np.ones(9, dtype=np.int64)
    with pytest.raises(OpmError):
        kernels.lut_gemv(np.zeros((2, 1), dtype=np.uint8), w, 0)
    with pytest.raises(OpmError):
        kernels.lut_gemv(np.zeros((2, 2), dtype=np.int64), w, 0)


# --------------------------------------------------------------------- #
# Recurrences
# --------------------------------------------------------------------- #
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, -1e300]
_finite = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
    st.floats(-50.0, 50.0, allow_nan=False),
)
_trace = st.lists(_finite, min_size=1, max_size=60).map(np.array)


#: The ``path`` fixture only selects the loader, the same for every
#: example, so it is safe to share across Hypothesis examples.
_EXAMPLES = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _chunks(x, cuts):
    """Split ``x`` at the (sorted, deduplicated) ``cuts``."""
    return np.split(x, sorted({c % (x.size + 1) for c in cuts}))


@_EXAMPLES
@given(
    x=_trace,
    cuts=st.lists(st.integers(0, 60), max_size=4),
    alpha=st.sampled_from([1.0, 0.5, 0.05, 1e-300]),
)
def test_ema_matches_loop(path, x, cuts, alpha):
    ema = EmaTracker(alpha)
    for c in _chunks(x, cuts):
        ema.update(c)
    # The first update of an EMA with no value starts it at x[0].
    expect = _reference(kernels.ema, x[1:], x[0], alpha)
    assert np.float64(ema.value).tobytes() == np.float64(expect).tobytes()
    assert ema.n == x.size


def test_ema_first_update_with_no_value(path):
    ema = EmaTracker(0.5)
    assert ema.update(np.empty(0)) is None
    assert ema.update(np.array([-0.0])) == 0.0
    assert np.float64(ema.value).tobytes() == np.float64(-0.0).tobytes()
    assert ema.update(np.array([2.0, 4.0])) == 2.5


@_EXAMPLES
@given(x=_trace, cuts=st.lists(st.integers(0, 60), max_size=4))
def test_pdn_step_chunk_matches_loop(path, x, cuts):
    pdn = PdnModel()
    start = pdn.equilibrium_state(float(x[0]))
    state, volts = start, []
    for c in _chunks(x, cuts):
        v, state = pdn.step_chunk(c, state)
        volts.append(v)
    u = x * 1e-3 / pdn.vdd
    ev, e0, e1 = _reference(
        kernels.pdn_run, u, pdn._coef, pdn.vdd, start.i_l, start.v_c
    )
    assert np.concatenate(volts).tobytes() == ev.tobytes()
    assert np.float64(state.i_l).tobytes() == np.float64(e0).tobytes()
    assert np.float64(state.v_c).tobytes() == np.float64(e1).tobytes()


@_EXAMPLES
@given(x=_trace, cuts=st.lists(st.integers(0, 60), max_size=4))
def test_droop_watcher_matches_loop(path, x, cuts):
    w = DroopWatcher(PdnModel(vdd=1.0), enter_ma=2.0, exit_ma=0.5)
    for c in _chunks(x, cuts):
        w.observe(c)
    di = np.diff(x, prepend=x[0])  # vdd = 1: current is power
    active, cycles, alerts = _reference(
        kernels.hysteresis, di, 2.0, 0.5, False, 0
    )
    assert (w.active, w.alert_cycles, w.alerts) == (active, cycles, alerts)


def test_hysteresis_thresholds_are_strict(path):
    # di == enter does not raise; di == exit does not clear.
    di = np.array([2.0, 2.5, 0.5, 0.5, 0.25, 2.0, 3.0, 0.0])
    assert kernels.hysteresis(di, 2.0, 0.5, False, 0) == (False, 6, 2)
    # Power steps that give those exact current steps through a watcher.
    w = DroopWatcher(PdnModel(vdd=1.0), enter_ma=2.0, exit_ma=0.5)
    w.observe(np.concatenate([[0.0], np.cumsum(di)]))
    assert (w.active, w.alert_cycles, w.alerts) == (False, 6, 2)
    # An alert still active at a chunk edge carries over.
    w = DroopWatcher(PdnModel(vdd=1.0), enter_ma=2.0, exit_ma=0.5)
    assert w.observe(np.array([0.0, 3.0])) == 1 and w.active
    assert w.observe(np.array([3.5, 3.6])) == 0 and not w.active
    assert w.alert_cycles == 3
