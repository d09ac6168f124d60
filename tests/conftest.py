from fractions import Fraction as F

import pytest

from pavelka import Structure, Vocabulary, storage
from pavelka.syntax import Signature


@pytest.fixture
def vocab_pc():
    return Vocabulary({"P": 1}, {"c": 0})


@pytest.fixture
def m2():
    """Two points at distance 1 with P = 1/3, 1 and the constant at a."""
    return Structure(
        ("a", "b"),
        {("a", "b"): F(1)},
        {"P": {("a",): F(1, 3), ("b",): F(1)}},
        {},
        {"c": "a"},
    )


@pytest.fixture
def mod3():
    """Three points with the successor operation mod 3."""
    return Structure(
        ("e0", "e1", "e2"),
        {("e0", "e1"): F(1), ("e0", "e2"): F(1), ("e1", "e2"): F(1)},
        {},
        {"s": {("e0",): "e1", ("e1",): "e2", ("e2",): "e0"}},
        {},
    )


@pytest.fixture
def files(tmp_path, m2, vocab_pc):
    """The CLI tests' input files, written into ``tmp_path``: each
    file's name maps to its path, and ``"tmp"`` to the directory."""
    paths = {}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(storage.dump_json(payload))
        paths[name] = str(path)
        return str(path)

    write("m2.json", storage.structure_to_dict(m2))
    write("sig.json", storage.signature_to_dict(
        Signature(m2.vocabulary(), {"P": [(F(1, 4), F(3, 4))]})))
    write("box.json", {"name": "box",
                       "sentences": ["P(c) >= 1/3", "P(c) <= 1/2"]})
    write("failing.json", {"name": "f", "sentences": ["P(c)"]})
    write("sigma.json", {"name": "s", "variables": ["x"],
                         "formulas": ["P(x)"]})
    write("gamma.json", {"name": "g", "variables": ["x"],
                         "formulas": ["P(x) >= 1/2"]})
    write("vocab.json", storage.vocabulary_to_dict(m2.vocabulary()))
    write("space.json", storage.space_to_dict(
        __import__("pavelka").SearchSpace(m2.vocabulary(), 2, 2, 2)))
    write("tight.json", {"name": "t", "sentences": ["P(c)"]})
    write("loose.json", {"name": "t", "sentences": ["P(c) >= 1/2"]})
    half = Structure(("z",), {}, {"P": {("z",): F(1, 2)}}, {}, {"c": "z"})
    write("half.json", storage.structure_to_dict(half))
    one = Structure(("w",), {}, {"P": {("w",): F(1)}}, {}, {"c": "w"})
    fam = tmp_path / "family"
    fam.mkdir()
    (fam / "m2.json").write_text(
        storage.dump_json(storage.structure_to_dict(m2)))
    (fam / "half.json").write_text(
        storage.dump_json(storage.structure_to_dict(half)))
    (fam / "one.json").write_text(
        storage.dump_json(storage.structure_to_dict(one)))
    paths["family"] = str(fam)
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("P(x)\n")
    paths["formulas.txt"] = str(formulas)
    formula_file = tmp_path / "phi.txt"
    formula_file.write_text("E x. P(x)\n")
    paths["phi.txt"] = str(formula_file)
    paths["tmp"] = str(tmp_path)
    return paths
