"""A definition only a test calls: dead, like the export only a test
imports."""


def reference_sum(xs):
    total = 0
    for x in xs:
        total += x
    return total
