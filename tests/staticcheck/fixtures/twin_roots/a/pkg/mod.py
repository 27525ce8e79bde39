"""pkg.mod under root a: an unused import and a discarded generator call."""

import json


def gen():
    yield 1


def run():
    gen()
