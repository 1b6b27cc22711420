"""Per-layer attribution by wrapping each layer's public functions.

The wrappers are installed at run time, from these benchmark files, only
around traced passes; the program's sources are never edited and
untimed/untraced passes run the unmodified functions.  Every wrapped
call becomes a span on a :class:`repro.obs.Tracer` (name, start, end,
parent, step id), kept in memory and exported at the end with the
tracer's JSONL exporter.  A layer's *self* time is its spans' duration
minus the part covered by nested wrapped calls, so the self times of all
layers plus the benchmark's own glue add up to the root span exactly.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict

ORIGINAL = "__perfbench_original__"


class LayerProbe:
    """A set of (owner, attribute) wrap targets, installed on demand."""

    def __init__(self) -> None:
        self.targets: list[tuple] = []
        self.tracer = None
        self.step = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    def add(self, owner, attr: str, layer: str | None, hook=None,
            unwrap_args: bool = False) -> None:
        """Time ``owner.attr`` as ``layer`` (no span when ``None``).

        ``hook(probe, args, kwargs, result)`` runs after each call to
        record counts.  ``unwrap_args`` swaps wrapped callables in the
        positional arguments back to the originals first — needed where
        the callee pickles a function by name (a worker pool).
        """
        self.targets.append((owner, attr, layer, hook, unwrap_args))

    def install(self, tracer) -> None:
        self.tracer = tracer
        for owner, attr, layer, hook, unwrap in self.targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, layer, hook, unwrap))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self.tracer = None

    def _wrap(self, orig, layer, hook, unwrap):
        probe = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            if unwrap:
                args = tuple(getattr(a, ORIGINAL, a) for a in args)
            if layer is None:
                out = orig(*args, **kwargs)
            else:
                with probe.tracer.span(layer, step=probe.step):
                    try:
                        out = orig(*args, **kwargs)
                    except Exception:
                        probe.counts[layer + ".errors"] += 1
                        raise
            if hook is not None:
                hook(probe, args, kwargs, out)
            return out

        setattr(timed, ORIGINAL, orig)
        return timed


def span_times(tracer) -> dict[str, list]:
    """``{span name: [calls, total_s, self_s]}`` over finished spans."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in tracer.spans:
        covered = sum(c.duration for c in span.children)
        entry = out[span.name]
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - covered
    return out
