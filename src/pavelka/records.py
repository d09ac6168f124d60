"""The base of the library's immutable records: formulas, terms,
theories, types and the oracles' reports.

A record class names its fields, in order, in ``_fields`` and sets them
in its own ``__init__`` with ``object.__setattr__``.  A record is equal
only to a record of the same class with equal fields, hashes as the
tuple of its fields, prints as ``Name(field=value, ...)`` and refuses
assignment and deletion.  Every method is plain code, so importing a
module that declares records generates no code and loads no code
generator (such as the standard library's, which imports ``inspect``);
each class makes its one field getter, which ``==`` and ``hash`` call,
when it is defined.
"""

from operator import attrgetter


def _getter(fields: tuple):
    """A callable giving a record's fields as a tuple: ``attrgetter``
    gives a tuple for two or more names only."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(*fields)
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    __slots__ = ()
    _fields = ()
    _get = staticmethod(_getter(()))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._get = staticmethod(_getter(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
