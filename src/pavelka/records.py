"""The base of the library's immutable records: formulas, terms,
theories, types and the oracles' reports.

A record class names its fields, in order, in ``_fields``.  The base
``__init__`` stores each field given by position or by keyword, and the
trailing fields not given take their values from ``_defaults``, a tuple
as long as the fields that have one.  A class that converts or checks a
field does so in its own ``__init__``, which ends by handing every
field to the base one by position.  Only the nodes built in bulk store
their fields with ``object.__setattr__``: ``Var``, ``Func``, ``Atom``,
``Const``, ``Implies``, ``Exists``, ``Not`` and ``Leq`` in ``syntax``
(``Or`` and ``And`` bind ``Implies``'s constructor, ``Forall``
``Exists``'s and ``Geq`` ``Leq``'s), and ``Proj``, ``CConst`` and
``CImplies`` in ``connectives``.  Through the base constructor, even
with a positional fast path, an in-process pass of the benchmark's
``type-queries`` ran 4-6% slower in 7 of 7 alternating pairs, and
building ``half_approx(256)`` with ``_scaled_term(3, 4, 64)`` took
about 13 ms in place of 6 ms.

A record is equal only to a record of the same class with equal fields,
hashes as the tuple of its fields, prints as ``Name(field=value, ...)``
and refuses assignment and deletion.  Every method is plain code, so
importing a module that declares records generates no code and loads no
code generator (such as the standard library's, which imports
``inspect``); each class makes its one field getter when it is defined.

Records nest: a field may hold a record, or a tuple with records among
its items (``parts`` lists them), and formulas and connective terms are
DAGs that share repeated operands.  So ``==``, ``hash`` and ``repr``
never recurse and never unfold a DAG: each walks the distinct nodes
with ``postorder``, the one walk over a DAG of records (each distinct
node once, children first):

- ``==`` numbers both records in one table (``numbering``), where two
  nodes get the same number exactly when they are equal;
- ``hash`` folds each distinct node's field tuple bottom-up, a record in
  it standing for its own hash, so it is the hash of the field tuple;
- ``repr`` sizes each distinct node's text before writing it, and
  writes a record whose text runs past ``REPR_LIMIT`` characters as
  ``Name(...)`` inside another's.

A record that holds no other record compares and hashes its field
tuple directly, which is faster.
"""

from operator import attrgetter

# The longest text ``repr`` writes for a record inside another record;
# a longer one is written ``Name(...)``, since the text of a DAG can be
# exponentially longer than the DAG.
REPR_LIMIT = 10_000


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
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other is self:
            return True
        if not (parts(self) or parts(other)):
            get = self._get
            return get(self) == get(other)
        numbers = numbering(self, other)
        return numbers[id(self)] is numbers[id(other)]

    def __hash__(self):
        if not parts(self):
            return hash(self._get(self))
        hashes: dict[int, _Hash] = {}
        for node in postorder(self, parts):
            hashes[id(node)] = _Hash(hash(_swap(node, hashes)))
        return hashes[id(self)].value

    def __repr__(self):
        # by id(node): the length of its text in full, and its text
        # inside another record's, in full or, past REPR_LIMIT, Name(...)
        sizes: dict[int, int] = {}
        texts: dict[int, _Text] = {}
        for node in postorder(self, parts):
            kids = parts(node)
            blanks = dict.fromkeys(map(id, kids), _Text())
            size = len(_text(node, blanks)) + sum(sizes[id(kid)]
                                                  for kid in kids)
            sizes[id(node)] = size
            texts[id(node)] = _Text(
                _text(node, texts) if size <= REPR_LIMIT or node is self
                else f"{node.__class__.__qualname__}(...)")
        return str(texts[id(self)])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def parts(record) -> list:
    """The records that ``record`` holds: each field that is a record and
    each record item of a field that is a tuple, in field order."""
    found = []
    for value in record._get(record):
        if isinstance(value, Record):
            found.append(value)
        elif type(value) is tuple:
            found += [item for item in value if isinstance(item, Record)]
    return found


def _swap(record, done: dict) -> tuple:
    """The fields of ``record``, each record in them, as a field or as a
    tuple's item, replaced by ``done[id(it)]``."""
    values = []
    for value in record._get(record):
        if isinstance(value, Record):
            value = done[id(value)]
        elif type(value) is tuple:
            value = tuple([done[id(item)] if isinstance(item, Record)
                           else item for item in value])
        values.append(value)
    return tuple(values)


def _text(record, shown: dict) -> str:
    """``Name(field=value, ...)``, each record in the fields written as
    ``shown[id(it)]``."""
    fields = ", ".join([f"{name}={value!r}" for name, value
                        in zip(record._fields, _swap(record, shown))])
    return f"{record.__class__.__qualname__}({fields})"


class _Text(str):
    """A record's text where another record's text is written: its
    ``repr``, in a field or a tuple, is the text itself."""

    def __repr__(self):
        return str(self)


class _Hash:
    """Stands for a record in a tuple that is hashed: it hashes as the
    record's hash, so the tuple's hash is the hash of the fields."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


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


def numbering(*roots) -> dict:
    """``id(node)`` -> the number of ``node``'s structure, for each
    distinct record under ``roots``, all numbered in one table: two
    records get the same number exactly when they are equal (``==``).

    A node's key is its class and its fields, each record in them
    replaced by its number, so equal keys mean equal structures.  A
    number is an object made for its key, equal only to itself, so that
    no field value can pass for one.  A key that holds an unhashable
    value, such as a dict, is looked up among the others like it by
    ``==``.  The ids stay valid while the roots live.  One walk over the
    distinct nodes under each root, children first."""
    numbers: dict[int, object] = {}
    table: dict[tuple, object] = {}
    loose: list[tuple] = []  # (key, number) for each unhashable key
    for root in roots:
        for node in postorder(root, parts):
            if id(node) in numbers:  # under an earlier root too
                continue
            key = node.__class__, _swap(node, numbers)
            try:
                number = table.setdefault(key, object())
            except TypeError:  # a field holds a dict or a list
                number = next((number for known, number in loose
                               if known == key), None)
                if number is None:
                    number = object()
                    loose.append((key, number))
            numbers[id(node)] = number
    return numbers
