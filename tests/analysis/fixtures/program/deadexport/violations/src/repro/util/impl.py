def used():
    return 1


def unused():
    return 2


def tested():
    return 3
