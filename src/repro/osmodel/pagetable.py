"""Page-table protection model for channel-register pages.

In the real system, NEON marks the page holding a channel's doorbell
register "non-present"; a user-space store to it then raises a page fault
that the kernel routes to the GPU scheduler.  We model exactly that state:
a :class:`RegisterPage` is either mapped (stores go straight to the device)
or protected (stores fault).
"""

from __future__ import annotations



class RegisterPage:
    """The protection state of one channel-register page."""

    __slots__ = ("channel_id", "protected", "_protect_count")

    def __init__(self, channel_id: int, protected: bool = False) -> None:
        self.channel_id = channel_id
        self.protected = protected
        self._protect_count = 0

    def protect(self) -> None:
        """Mark the page non-present so the next store faults."""
        if not self.protected:
            self.protected = True
            self._protect_count += 1

    def unprotect(self) -> None:
        """Restore the direct mapping; stores no longer fault."""
        self.protected = False

    @property
    def protect_count(self) -> int:
        """Number of mapped→protected transitions (engagement episodes)."""
        return self._protect_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "protected" if self.protected else "mapped"
        return f"RegisterPage(ch{self.channel_id}, {state})"
