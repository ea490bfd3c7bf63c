"""The base of the value types: what ``@dataclass(frozen=True)`` made,
without importing ``dataclasses`` and generating code in every process.

A value type lists its fields in ``__slots__`` in constructor order and sets
them once, in ``__init__``, through ``_set``.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default slot-state path would go through __setattr__
        return type(self), tuple([getattr(self, name) for name in self._fields])
