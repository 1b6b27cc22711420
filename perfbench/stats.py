"""Small statistics and bookkeeping helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
from pathlib import Path

#: A step that was shed, dropped or mismatched misses every latency
#: limit; it is recorded with this latency (ms) instead of a measurement.
FAILED_STEP_MS = 1e9


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With fewer than eleven samples
    no such percentile exists; the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return float(xs[-1]), 100.0, n
    idx = n - 11  # exactly ten samples sit above this one
    return float(xs[idx]), 100.0 * (idx + 1) / n, n


def rss_peak_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_env(names) -> str:
    """The BLAS thread limits the run executes under, as ``VAR=value``."""
    set_ = [f"{n}={os.environ[n]}" for n in names if n in os.environ]
    return " ".join(set_) or "default"


def src_lines(root: Path) -> int:
    """Lines of Python under ``src/``, counted like ``wc -l``."""
    return sum(
        path.read_bytes().count(b"\n")
        for path in (root / "src").rglob("*.py")
    )


def revision(root: Path) -> str:
    """The git commit of ``root`` when it is a checkout, else a digest
    of the ``src/`` tree (benchmark checkouts are plain file trees)."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]
