"""The base of the library's immutable records: formulas, terms,
theories, types and the oracles' reports.

A record class names its fields, in order, in ``_fields``.  The base
``__init__`` stores each field given by position or by keyword, and the
trailing fields not given take their values from ``_defaults``, a tuple
as long as the fields that have one.  A class that converts or checks a
field, or that is built so often that the generic constructor shows,
sets its fields in its own ``__init__`` with ``object.__setattr__``
instead.  A record is equal only to a record of the same class with
equal fields, hashes as the tuple of its fields, prints as
``Name(field=value, ...)`` and refuses assignment and deletion.  Every
method is plain code, so importing a module that declares records
generates no code and loads no code generator (such as the standard
library's, which imports ``inspect``); each class makes its one field
getter, which ``==`` and ``hash`` call, when it is defined.

``postorder`` is the one walk over a DAG of records, such as a formula
or a connective term: each distinct node once, children first.
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
    _defaults = ()
    _get = staticmethod(_getter(()))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._get = staticmethod(_getter(cls._fields))

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, "
                            f"got {len(args)} positional values")
        values = dict(zip(fields[len(fields) - len(self._defaults):],
                          self._defaults))
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} has no field {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name} got field {key!r} twice")
            values[key] = value
        for key in fields:
            if key not in values:
                raise TypeError(f"{name} is missing field {key!r}")
            object.__setattr__(self, key, values[key])

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


def postorder(root, kids) -> list:
    """Each distinct node under ``root`` once, by identity, after all of
    its children; ``kids(node)`` lists those, and they are taken left to
    right.  Iterative, so a deep formula or term needs no recursion."""
    seen = {id(root)}
    order = []
    stack = [(root, iter(kids(root)))]
    while stack:
        node, pending = stack[-1]
        for kid in pending:
            if id(kid) not in seen:
                seen.add(id(kid))
                below = kids(kid)
                if below:
                    stack.append((kid, iter(below)))
                    break
                order.append(kid)
        else:
            stack.pop()
            order.append(node)
    return order

