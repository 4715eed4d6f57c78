"""A class the registry reaches through its decorator, not by name."""

_REGISTRY = []


def register(cls):
    _REGISTRY.append(cls)
    return cls


@register
class CountRule:
    code = "CNT001"
