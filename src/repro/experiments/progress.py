"""Live per-cell progress for the experiment farm (``--progress``).

Renders cell status — queued / running / done / failed, elapsed wall
time, and cache reuse — to stderr while :func:`repro.experiments.parallel
.run_cells` grinds through a batch.  On a TTY the renderer keeps one
status line rewritten in place; anywhere else (CI logs, pipes) it
degrades to a plain line per completed cell so logs stay greppable.

Progress never touches stdout (experiment tables stay byte-identical)
and reads the host clock only through
:func:`repro.obs.clock.host_clock`, the sanctioned accessor.  The CLI
wraps the run in :func:`progressing` and the farm asks
:func:`active_progress` per batch, paying one ``is None`` check when the
flag is off.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import IO, Iterator, Optional

from repro.obs.clock import host_clock


class CellProgress:
    """Renders one ``run_cells`` batch after another to a stream."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._total = 0
        self._done = 0
        self._reused = 0
        self._failed = 0
        self._running: Optional[str] = None
        self._started = 0.0
        self._line_width = 0

    # ------------------------------------------------------------------
    # Farm callbacks
    # ------------------------------------------------------------------
    def begin(self, total: int) -> None:
        """A new batch of ``total`` cells is about to resolve."""
        self._total = total
        self._done = 0
        self._reused = 0
        self._failed = 0
        self._running = None
        self._started = host_clock()
        if self._tty:
            self._render()

    def cell_running(self, index: int, label: str) -> None:
        self._running = label
        if self._tty:
            self._render()
        else:
            self._emit(f"cell[{index}] running  {label}")

    def cell_done(
        self, index: int, label: str, source: str, wall_s: float
    ) -> None:
        """One cell resolved (``source`` is run/pool/cache/dup)."""
        self._done += 1
        if source in ("cache", "dup"):
            self._reused += 1
        if self._running == label:
            self._running = None
        if self._tty:
            self._render()
        else:
            self._emit(
                f"cell[{index}] {source:5s} {wall_s:7.2f}s  {label}"
            )

    def cell_failed(self, index: int, label: str) -> None:
        self._failed += 1
        if self._tty:
            self._clear_line()
        self._emit(f"cell[{index}] FAILED  {label}")
        if self._tty:
            self._render()

    def note(self, message: str) -> None:
        """An out-of-band line (e.g. pool fallback), TTY-safe."""
        if self._tty:
            self._clear_line()
        self._emit(f"progress: {message}")
        if self._tty:
            self._render()

    def end(self) -> None:
        """Batch finished; leave the terminal on a fresh line."""
        if self._tty:
            self._clear_line()
        elapsed = host_clock() - self._started
        self._emit(
            f"progress: {self._done}/{self._total} cells "
            f"({self._reused} reused, {self._failed} failed) "
            f"in {elapsed:.1f}s"
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        self.stream.write(line + "\n")
        self.stream.flush()

    def _clear_line(self) -> None:
        if self._line_width:
            self.stream.write("\r" + " " * self._line_width + "\r")
            self.stream.flush()
            self._line_width = 0

    def _render(self) -> None:
        elapsed = host_clock() - self._started
        line = (
            f"cells {self._done}/{self._total}"
            f" ({self._reused} reused)"
            f" {elapsed:6.1f}s"
        )
        if self._failed:
            line += f" {self._failed} FAILED"
        if self._running:
            line += f"  running: {self._running}"
        padding = max(0, self._line_width - len(line))
        self.stream.write("\r" + line + " " * padding)
        self.stream.flush()
        self._line_width = len(line)


#: Module-level active renderer; None unless ``--progress`` installed one.
_ACTIVE: Optional[CellProgress] = None


def active_progress() -> Optional[CellProgress]:
    """The installed renderer, or None when progress is off."""
    return _ACTIVE


@contextmanager
def progressing(renderer: Optional[CellProgress] = None) -> Iterator[CellProgress]:
    """Install ``renderer`` (or a stderr one) for the duration of the block."""
    global _ACTIVE
    if renderer is None:
        renderer = CellProgress()
    previous = _ACTIVE
    _ACTIVE = renderer
    try:
        yield renderer
    finally:
        _ACTIVE = previous
