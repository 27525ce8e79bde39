"""Fixture: a base class whose submit is a virtual-time generator."""


class Workload:
    def submit(self, channel, size):
        yield size
