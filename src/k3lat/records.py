"""Base class of the package's records: the one rule for their equality and hash.

A record names its fields in ``__slots__`` and holds nothing else: what it
derives from them is computed when read, never stored. It is built by
position or by keyword, equals only a record of the same type with equal
fields (never a plain tuple), hashes by its fields, so not when one is a
dict, and rejects attribute assignment. This replaces frozen dataclasses,
whose import and class generation cost more at start-up than most commands
spend on their work.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields) or set(kwargs) != set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()
