"""Immutable value records.

A subclass of Frozen names its fields in _fields, which are also its
__slots__, and its __init__ sets them through _set (or object.__setattr__).
Its instances compare and hash as the tuple of their field values, only
against instances of exactly the same class; they refuse assignment and
deletion, survive copy and pickle, and their repr is
Name(field=value, ...).
"""


class Frozen:
    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the fields here: state is (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
