"""pkg.mod under root b: a clean twin of a/pkg/mod.py."""


def run():
    return 1
