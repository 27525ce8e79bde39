"""A property getter with a setter: the getter's body must still be linked."""


class Gauge:
    def sample(self):
        yield 1.0

    @property
    def level(self):
        self.sample()
        return 0.0

    @level.setter
    def level(self, value):
        self.value = value
