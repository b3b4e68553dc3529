"""Slotted record classes with a dataclass's equality and repr.

Record compares and prints the fields its subclass names in __slots__, in
that order, as a dataclass does; its fields can change, so it does not
hash.  FrozenRecord cannot change once built: __setattr__ and __delattr__
refuse every write, so a subclass's __init__ fills its slots with
object.__setattr__.  It hashes as its field tuple, and copy and pickle
rebuild it by calling the class on that tuple, so the constructor's checks
run again.  Neither loads dataclasses, so the CLI, which builds moves and
reports, starts without it (tests/test_source.py checks the import).
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__),
        )


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()
