"""GPU contexts — per-task device address spaces grouping channels."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.task import Task


class GpuContext:
    """A device context.

    Channels in the same context may carry causally related requests, so
    (as NEON does) schedulers must never reorder requests within a context.
    The device serializes context cleanup when a context is killed.
    """

    def __init__(self, task: "Task", context_id: int) -> None:
        self.context_id = context_id
        self.task = task
        self.channels: list["Channel"] = []
        self.dead = False

    def add_channel(self, channel: "Channel") -> None:
        self.channels.append(channel)

    @property
    def pending_requests(self) -> int:
        """Total queued-but-unfinished requests across the context."""
        return sum(channel.pending for channel in self.channels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "live"
        return (
            f"GpuContext(#{self.context_id}, task={self.task.name}, "
            f"{len(self.channels)} channels, {state})"
        )
