"""The base of the library's immutable records: formulas, terms,
theories, types and the oracles' reports.

A record class names its fields, in order, in ``_fields`` and sets them
in its own ``__init__`` with ``object.__setattr__``.  A record is equal
only to a record of the same class with equal fields, hashes as the
tuple of its fields, prints as ``Name(field=value, ...)`` and refuses
assignment and deletion.  Every method is plain code, so importing a
module that declares records generates no code and loads no code
generator (such as the standard library's, which imports ``inspect``).
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
