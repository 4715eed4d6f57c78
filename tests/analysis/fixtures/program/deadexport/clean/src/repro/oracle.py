"""A test oracle kept on purpose, with its reason and a suppression."""


# Oracle: tests check the library's sum against this loop.
def reference_sum(xs):  # duetlint: disable=DEAD001
    total = 0
    for x in xs:
        total += x
    return total
