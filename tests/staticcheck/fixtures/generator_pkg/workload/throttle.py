"""Fixture: a subclass drops its inherited generator (NEON301/302).

The generator is defined in another module, so only a resolved call
target — not a name seen in this file — can tell it is one.
"""

from workload.base import Workload


class Throttle(Workload):
    def body(self, channel):
        self.submit(channel, 1.0)
        yield self.submit(channel, 1.0)
        yield from self.submit(channel, 1.0)
