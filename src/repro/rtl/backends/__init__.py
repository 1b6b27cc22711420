"""Pluggable simulation backends.

Importing this package registers the built-in engines — ``"compiled"``
(default: a runtime-compiled C kernel, or its NumPy loop when no
compiler is available) and ``"uint8"`` (reference) — with the registry
in :mod:`repro.rtl.backends.base`.  All backends are bit-identical by
contract; they differ only in throughput.
"""

from repro.rtl.backends.base import (
    Backend,
    acc_reduce,
    backend_names,
    eval_comb,
    get_backend,
    initial_values,
    register_backend,
)

# Importing the engine modules registers them (order defines the public
# ENGINES order: compiled first, as it is the default).
from repro.rtl.backends.compiled import CompiledBackend
from repro.rtl.backends.uint8 import Uint8Backend

__all__ = [
    "Backend",
    "CompiledBackend",
    "Uint8Backend",
    "acc_reduce",
    "backend_names",
    "eval_comb",
    "get_backend",
    "initial_values",
    "register_backend",
]
