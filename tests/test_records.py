"""Every record class against a frozen dataclass twin declared here:
the same equality, hash, repr, construction and immutability, and the
same validation errors.

Runs under pytest, or as a plain script (``PYTHONPATH=src python
tests/test_records.py``) on an interpreter without pytest.
"""

import importlib
import inspect
import pkgutil
from dataclasses import field, make_dataclass
from fractions import Fraction as F

import pavelka
from pavelka import connectives as cn
from pavelka import evaluator as ev
from pavelka import omitting as om
from pavelka import structures as st
from pavelka import syntax as sx
from pavelka import transforms as tr
from pavelka.errors import FormulaError
from pavelka.records import REPR_LIMIT, Record

P = sx.Atom("P", (sx.Var("x"),))
HALF = sx.Const(F(1, 2))
VOCAB = sx.Vocabulary({"P": 1}, {"c": 0})
M = st.Structure(("a", "b"), {("a", "b"): F(1)},
                 {"P": {("a",): F(1, 3), ("b",): F(1)}}, {}, {"c": "a"})
PIECE = cn.AffinePiece((F(1, 2),), F(1, 4))

# (record class, its fields in order, each a name or a (name, default)
# pair, whether the class has __slots__, field values that the class
# keeps as given)
TWINS = [
    (sx.Vocabulary, ["predicates", "operations"], False,
     ({"P": 1}, {"c": 0})),
    (sx.Signature, ["vocabulary", "moduli"], False,
     (VOCAB, {"P": ((F(1, 4), F(3, 4)),)})),
    (sx.Var, ["name"], True, ("x",)),
    (sx.Func, ["name", ("args", ())], True, ("f", (sx.Var("x"),))),
    (sx.Atom, ["pred", "args"], True, ("P", (sx.Var("x"),))),
    (sx.Const, ["value"], True, (F(1, 2),)),
    (sx.Implies, ["lhs", "rhs"], True, (P, HALF)),
    (sx.Exists, ["var", "body"], True, ("x", P)),
    (sx.Not, ["body"], True, (P,)),
    (sx.Or, ["lhs", "rhs"], True, (P, HALF)),
    (sx.And, ["lhs", "rhs"], True, (P, HALF)),
    (sx.Leq, ["body", "bound"], True, (P, F(1, 2))),
    (sx.Geq, ["body", "bound"], True, (P, F(1, 2))),
    (sx.Forall, ["var", "body"], True, ("x", P)),
    (sx.Theory, ["name", "sentences"], False, ("t", (sx.Exists("x", P),))),
    (sx.TypeSet, ["name", "variables", "formulas"], False,
     ("t", ("x",), (P, HALF))),
    (cn.Proj, ["index", "arity"], True, (1, 2)),
    (cn.CConst, ["value"], True, (F(1, 3),)),
    (cn.CImplies, ["lhs", "rhs"], True,
     (cn.Proj(1, 1), cn.CConst(F(1, 3)))),
    (cn.AffinePiece, ["coefficients", "intercept"], False,
     ((F(1, 2),), F(1, 4))),
    (cn.PLSpec, ["arity", "groups"], False, (1, ((PIECE,),))),
    (st.Violation, ["kind", "witness", "values"], False,
     ("metric", ("a", "b"), (F(1),))),
    (st.ValidationReport, ["passed", "violations"], False, (True, ())),
    (st.Renaming, ["mapping"], False, ({"P": "Q"},)),
    (ev.TheoryReport, ["satisfied", "failing"], False, (False, ((P, F(0)),))),
    (ev.EntailmentResult, ["holds", ("structure", None),
                           ("assignment", None), ("formula", None),
                           ("value", None)], False,
     (False, M, ("a",), P, F(1, 3))),
    (ev.TarskiVaughtReport, ["passed", "failures"], False,
     (False, ((P, F(1, 2)),))),
    (om.OmitsReport, ["omitted", "witnesses", ("realizer", None)], False,
     (True, {("a",): (P, F(1, 3))}, None)),
    (om.GeneratorReport, ["generates", "satisfied", ("witness", None),
                          ("entailment", None)], False,
     (True, True, (M, ("b",)), ev.EntailmentResult(True))),
    (om.OmegaCandidate, ["variables", "terms", "formula", "threshold"],
     False, (("x",), (sx.Var("x"),), P, F(1, 2))),
    (om.GeneratorCandidate, ["formulas"], False, ((P,),)),
    (om.OmegaPrincipalReport, ["accepted", "generator", "threshold"], False,
     (False, om.GeneratorReport(False, False), ev.EntailmentResult(True))),
    (om.SearchSpace, ["vocabulary", "max_size", "truth_denominator",
                      "metric_denominator", ("seed", 0)], False,
     (VOCAB, 2, 4, 2, 7)),
    (om.SearchOutcome, ["structure", "examined"], False, (M, 3)),
    (om.CompleteTypeRecord, ["structure", "elements"], False, (M, ("a",))),
    (om.TypeDistance, ["value", "connected"], False, (F(1, 2), True)),
    (om.DeltaVerdict, ["delta", "accepted", "detail"], False,
     (F(1, 2), True, None)),
    (om.MetricPrincipalReport, ["accepted", "verdicts"], False, (True, ())),
    (tr.OrderTheorySpec, ["predicate", "order", ("base", None)], False,
     ("Q", "L", VOCAB)),
]


def names(fields):
    return [f if isinstance(f, str) else f[0] for f in fields]


def twin_class(cls, fields, slots):
    """A frozen dataclass with the record class's name and fields."""
    spec = [f if isinstance(f, str) else (f[0], object, field(default=f[1]))
            for f in fields]
    return make_dataclass(cls.__name__, spec, frozen=True, slots=slots)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def raises(error, fn, *args, **kwargs) -> str:
    """The message of the ``error`` that ``fn(*args, **kwargs)`` raises."""
    try:
        fn(*args, **kwargs)
    except error as exc:
        return str(exc)
    raise AssertionError(f"{fn!r} raised no {error.__name__}")


def test_the_table_lists_every_record_class():
    modules = (sx, cn, st, ev, om, tr)
    found = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, Record)
             and value.__module__ == module.__name__ and "_fields" in
             vars(value)}
    assert found == {cls for cls, *_ in TWINS}
    assert len(TWINS) == 39


# The nodes built in bulk, which store their fields by hand: through
# ``Record.__init__`` they measured slower (see ``records.py``).
BULK = {sx.Var, sx.Func, sx.Atom, sx.Const, sx.Implies, sx.Exists, sx.Not,
        sx.Leq, cn.Proj, cn.CConst, cn.CImplies}


def test_only_bulk_built_nodes_store_fields_by_hand():
    classes = {value for info in pkgutil.iter_modules(pavelka.__path__)
               for value in vars(importlib.import_module(
                   f"pavelka.{info.name}")).values()
               if isinstance(value, type) and issubclass(value, Record)
               and value.__module__ == f"pavelka.{info.name}"}
    assert BULK < classes
    bulk_inits = {cls.__init__ for cls in BULK}
    by_hand = sorted(cls.__qualname__ for cls in classes - {Record}
                     if "__init__" in vars(cls)
                     and cls.__init__ not in bulk_inits
                     and "object.__setattr__"
                     in inspect.getsource(cls.__init__))
    assert by_hand == []
    # derived nodes of one layout bind a core node's constructor
    assert sx.Or.__init__ is sx.And.__init__ is sx.Implies.__init__
    assert sx.Forall.__init__ is sx.Exists.__init__
    assert sx.Geq.__init__ is sx.Leq.__init__


def test_fields_repr_and_hash_match_the_twin():
    for cls, fields, slots, values in TWINS:
        record, twin = cls(*values), twin_class(cls, fields, slots)(*values)
        assert cls._fields == tuple(names(fields)), cls
        assert [getattr(record, n) for n in names(fields)] == list(values)
        assert repr(record) == repr(twin), cls
        assert hash_or_error(record) == hash_or_error(twin), cls


def test_equality_is_by_class_and_fields():
    for cls, fields, slots, values in TWINS:
        record, twin = cls(*values), twin_class(cls, fields, slots)(*values)
        assert record == cls(*values) and not record != cls(*values)
        assert record != twin and not record == twin
        assert record.__eq__(twin) is NotImplemented
        assert record != tuple(values)
    # the same field names and values in another class
    pairs = [(sx.Or(P, HALF), sx.And(P, HALF)),
             (sx.Or(P, HALF), sx.Implies(P, HALF)),
             (sx.Leq(P, F(1, 2)), sx.Geq(P, F(1, 2))),
             (sx.Exists("x", P), sx.Forall("x", P)),
             (sx.Const(F(1, 3)), cn.CConst(F(1, 3)))]
    for left, right in pairs:
        assert left._get(left) == right._get(right)
        assert left != right and not left == right
    assert sx.Implies(P, HALF) != sx.Implies(HALF, P)


def test_positional_keyword_and_default_construction():
    for cls, fields, slots, values in TWINS:
        keywords = dict(zip(names(fields), values))
        assert cls(**keywords) == cls(*values), cls
        defaults = {f[0]: f[1] for f in fields if not isinstance(f, str)}
        if defaults:
            required = len(fields) - len(defaults)
            given = {k: v for k, v in keywords.items() if k not in defaults}
            twin = twin_class(cls, fields, slots)(**given)
            for record in cls(*values[:required]), cls(**given):
                assert repr(record) == repr(twin), cls
                assert {k: getattr(record, k) for k in defaults} == defaults


def test_assignment_and_deletion_raise():
    for cls, fields, slots, values in TWINS:
        record = cls(*values)
        for name in names(fields) + ["extra"]:
            assert raises(AttributeError, setattr, record, name, 0) \
                == f"cannot assign to field {name!r}"
            assert raises(AttributeError, delattr, record, name) \
                == f"cannot delete field {name!r}"
        assert [getattr(record, n) for n in names(fields)] == list(values)
        assert hasattr(record, "__dict__") is not slots, cls


def test_validation_errors():
    assert raises(FormulaError, sx.Const, 2) == "constant outside [0,1]: 2"
    assert raises(FormulaError, sx.Leq, P, F(3, 2)) \
        == "bound outside [0,1]: 3/2"
    assert raises(FormulaError, cn.Proj, 0, 1) \
        == "bad projection: index=0 arity=1"
    assert raises(FormulaError, sx.TypeSet, "t", ("x",),
                  (sx.Atom("R", (sx.Var("x"), sx.Var("y"))),)) \
        == "type 't' has formula with stray free variables ['y']"
    assert raises(FormulaError, om.CompleteTypeRecord, M, ()) \
        == "a record needs at least one element"
    # normalised on the way in
    assert sx.Const(1).value == 1 and type(sx.Const(1).value) is F
    assert sx.Atom("P", [sx.Var("x")]).args == (sx.Var("x"),)
    assert sx.Vocabulary({"P": 1}, {}).operations == {}


def test_theory_programs_are_compiled_once():
    theory = sx.Theory("t", [sx.Exists("x", P), HALF])
    programs = [ev.compile_formula(s) for s in theory.sentences]
    assert all(ev.compile_formula(s) is program
               for s, program in zip(theory.sentences, programs))
    assert [program.source for program in programs] == list(theory.sentences)
    assert raises(AttributeError, setattr, theory.sentences[1], "_program",
                  None) == "cannot assign to field '_program'"
    twin = sx.Theory("t", (sx.Exists("x", sx.Atom("P", (sx.Var("x"),))),
                           sx.Const(F(1, 2))))
    assert theory == twin and hash(theory) == hash(twin)


def test_too_many_positional_values_raise():
    assert raises(TypeError, ev.TheoryReport, True, (), None) \
        == "TheoryReport takes 2 fields, got 3 positional values"


def test_an_unknown_keyword_raises():
    assert raises(TypeError, om.OmitsReport, True, {}, realiser=("a",)) \
        == "OmitsReport has no field 'realiser'"


def test_a_field_given_twice_raises():
    assert raises(TypeError, ev.TheoryReport, True, (), satisfied=False) \
        == "TheoryReport got field 'satisfied' twice"


def test_a_missing_field_without_default_raises():
    assert raises(TypeError, ev.EntailmentResult, structure=M) \
        == "EntailmentResult is missing field 'holds'"
    assert raises(TypeError, om.GeneratorReport, True, witness=(M, ("a",))) \
        == "GeneratorReport is missing field 'satisfied'"


def doubling(levels, leaf):
    """``t(levels)`` for ``t(0) = leaf`` and ``t(k + 1) = t(k) -> t(k)``:
    ``levels + 1`` distinct nodes, ``2 ** levels`` leaves unfolded."""
    node = leaf
    for _ in range(levels):
        node = cn.CImplies(node, node)
    return node


def chain(levels, leaf):
    """``leaf`` under ``levels`` implications into 1/2."""
    node = leaf
    for _ in range(levels):
        node = cn.CImplies(node, cn.CConst(F(1, 2)))
    return node


def test_deep_and_shared_records_compare_hash_and_print():
    half = cn.CConst(F(1, 2))
    for build in (lambda leaf: doubling(40, leaf),
                  lambda leaf: chain(3_000, leaf)):
        # built apart, and apart but for the deepest leaf
        one, two, other = build(cn.Proj(1, 1)), build(cn.Proj(1, 1)), \
            build(half)
        assert one == two and not one != two and hash(one) == hash(two)
        assert one != other and not one == other
        text = repr(one)
        assert text.startswith("CImplies(lhs=CImplies(...), rhs=")
        assert len(text) < 100
    # 2,050 deep
    big = cn.half_approx(1024)
    assert big == cn.half_approx(1024) and big != cn.half_approx(1023)
    assert hash(big) == hash(cn.half_approx(1024))
    assert repr(big).startswith("CImplies(lhs=CImplies(...), rhs=")


def test_hash_is_the_hash_of_the_fields():
    x, half = cn.Proj(1, 1), cn.CConst(F(1, 2))
    nodes = [doubling(12, x), chain(12, x), cn.CImplies(x, half),
             sx.Atom("R", (sx.Var("x"), sx.Func("f", (sx.Var("y"),)))),
             sx.Theory("t", (sx.Exists("x", P), HALF))]
    for node in nodes:
        assert hash(node) == hash(node._get(node))
    assert hash(cn.CImplies(x, half)) != hash(cn.CImplies(half, x))


def test_repr_writes_records_that_fit_in_full():
    def full(node):  # the whole text, by recursion
        if isinstance(node, cn.CImplies):
            return f"CImplies(lhs={full(node.lhs)}, rhs={full(node.rhs)})"
        return repr(node)

    fits = 0
    for levels in range(180, 230, 7):
        node = chain(levels, cn.Proj(1, 1))
        inner = full(node.lhs)
        if len(inner) <= REPR_LIMIT:
            fits += 1
            assert repr(node) == full(node)
        else:
            assert repr(node) == f"CImplies(lhs=CImplies(...), " \
                f"rhs={full(node.rhs)})"
    assert 0 < fits < 8


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("test_records: all passed")
