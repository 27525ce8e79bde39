"""Fixture: a plain method sharing a generator's name is no generator call.

``Kernel.submit`` is a generator; ``self.device.submit`` is the plain
``Device.submit``, and neonlint must not take one for the other.
"""


class Device:
    def submit(self, channel, request):
        return request


class Kernel:
    def __init__(self, device):
        self.device = device

    def submit(self, channel, request):
        yield 1.0
        self.device.submit(channel, request)
        return request
