"""The channel-discovery state machine (NEON's initialization phase).

NEON identifies, per channel, three virtual memory areas: the *command
buffer* (where requests are constructed), the *ring buffer* (pointers to
consecutive requests), and the *channel register* (the doorbell).  Only
when all three are known is the channel marked "active" and eligible for
interception.  The state machine here mirrors that protocol; the kernel
runs it on the mmap events of channel setup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class VmaKind(enum.Enum):
    COMMAND_BUFFER = "command_buffer"
    RING_BUFFER = "ring_buffer"
    CHANNEL_REGISTER = "channel_register"


class DiscoveryState(enum.Enum):
    INIT = "init"
    PARTIAL = "partial"
    ACTIVE = "active"


#: Address of a simulation's first mapped VMA; each later one is a page up.
VMA_BASE = 0x7F00_0000_0000
VMA_PAGE = 0x1000


@dataclass(frozen=True)
class Vma:
    """One mapped virtual memory area of a channel."""

    kind: VmaKind
    channel_id: int
    address: int

    @classmethod
    def fresh(cls, kind: VmaKind, channel_id: int, serial: int) -> "Vma":
        """The ``serial``-th mapping (counting from 1) of a simulation."""
        return cls(kind, channel_id, VMA_BASE + VMA_PAGE * (serial - 1))


class ChannelDiscovery:
    """Tracks mmap events for one channel until all three VMAs are known.

    ``vma_ids`` numbers the mappings :meth:`run_full_setup` creates; the
    kernel passes its simulator's ``"vma"`` id counter.
    """

    def __init__(self, channel_id: int, vma_ids: Iterator[int]) -> None:
        self.channel_id = channel_id
        self.vma_ids = vma_ids
        self.state = DiscoveryState.INIT
        self.vmas: dict[VmaKind, Vma] = {}

    def observe_mmap(self, vma: Vma) -> DiscoveryState:
        """Feed one mmap event; returns the resulting state.

        Duplicate mappings of the same kind replace the previous one (the
        driver occasionally remaps); mappings for other channels are
        rejected.
        """
        if vma.channel_id != self.channel_id:
            raise ValueError(
                f"VMA for channel {vma.channel_id} fed to discovery of "
                f"channel {self.channel_id}"
            )
        self.vmas[vma.kind] = vma
        if len(self.vmas) == len(VmaKind):
            self.state = DiscoveryState.ACTIVE
        else:
            self.state = DiscoveryState.PARTIAL
        return self.state

    def observe_munmap(self, kind: VmaKind) -> DiscoveryState:
        """An unmap invalidates the channel until the VMA reappears."""
        self.vmas.pop(kind, None)
        if not self.vmas:
            self.state = DiscoveryState.INIT
        else:
            self.state = DiscoveryState.PARTIAL
        return self.state

    @property
    def active(self) -> bool:
        return self.state is DiscoveryState.ACTIVE

    def run_full_setup(self) -> None:
        """Observe the standard three-mmap setup sequence."""
        for kind in (
            VmaKind.COMMAND_BUFFER,
            VmaKind.RING_BUFFER,
            VmaKind.CHANNEL_REGISTER,
        ):
            self.observe_mmap(
                Vma.fresh(kind, self.channel_id, next(self.vma_ids))
            )
