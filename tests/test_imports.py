"""Every name a library module imports is used in that module, and every
private top-level name of the library is used somewhere in it.

The package re-exports names through ``__init__.py``, which is excluded
from the import check.
"""

import ast
from pathlib import Path

import pytest

import groupgeom

SOURCES = sorted(Path(groupgeom.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "from .words import EMPTY, shortlex_key\nimport os\n\nx = EMPTY\n"
    assert _unused_imports(source) == ["shortlex_key (line 1)", "os (line 2)"]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names that nothing outside their own definition uses.

    A use is the name anywhere in the defining module outside the
    definition, or an attribute or ``from`` import of it in any module.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    elsewhere = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for definition in tree.body:
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                names = [definition.name]
            elif isinstance(definition, ast.Assign):
                names = [t.id for t in definition.targets if isinstance(t, ast.Name)]
            elif isinstance(definition, ast.AnnAssign) and isinstance(definition.target, ast.Name):
                names = [definition.target.id]
            else:
                continue
            inside = set(map(id, ast.walk(definition)))
            for name in names:
                if not name.startswith("_") or name.startswith("__") or name in elsewhere:
                    continue
                if not any(
                    isinstance(node, ast.Name) and node.id == name and id(node) not in inside
                    for node in ast.walk(tree)
                ):
                    found.append(f"{module}: {name} (line {definition.lineno})")
    return found


def test_every_private_name_is_used():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert _unreferenced_private_names(sources) == []


def test_detector_flags_a_private_name_kept_only_for_tests():
    sources = {
        "thinness.py": (
            "_SIDES = (0, 1)\n\n\ndef _descend(v):\n    return [v]\n\n\n"
            "def _adversary_path(dag):\n    return _adversary_path(dag.prev)\n\n\n"
            "def delta():\n    return _descend(_SIDES[0])\n"
        ),
        "cli.py": "from . import thinness\n\nthinness._SIDES\n",
    }
    assert _unreferenced_private_names(sources) == ["thinness.py: _adversary_path (line 8)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_detector_flags_an_unused_private_constant(path):
    # Module constants such as thinness._SIDES and hplane._CHUNK are checked
    # like functions: an unused one appended to any module is reported.
    sources = {p.name: p.read_text() for p in SOURCES}
    lines = sources[path.name].count("\n")
    sources[path.name] += "\n_X = 1\n"
    assert _unreferenced_private_names(sources) == [f"{path.name}: _X (line {lines + 2})"]


# words.check_count is the one rule for count, length and radius arguments;
# a module that tests for numpy integers itself has grown a second copy.
def _numpy_integer_refs(sources: dict[str, str]) -> list[str]:
    """References to ``np.integer`` (or ``numpy.integer``) outside words.py."""
    found = []
    for module, source in sources.items():
        if module == "words.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "integer"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append(f"{module}: line {node.lineno}")
    return found


def test_numpy_integers_are_tested_only_by_the_count_rule():
    assert _numpy_integer_refs({path.name: path.read_text() for path in SOURCES}) == []


def test_detector_flags_a_numpy_integer_check():
    source = next(p for p in SOURCES if p.name == "cayley.py").read_text()
    lines = source.count("\n")
    source += "\nisinstance(n, (int, np.integer))\n"
    assert _numpy_integer_refs({"cayley.py": source}) == [f"cayley.py: line {lines + 2}"]


# Presentation.check_word's alphabet set is the one letter rule; a
# hand-written range scan such as ``x == 0 or abs(x) > rank`` passes 1.5.
def _abs_bounds(sources: dict[str, str]) -> list[str]:
    """Comparisons that bound ``abs(...)`` from below, ``abs(x) > n`` or
    ``n < abs(x)`` (strict or not): the shape of a letter range check."""
    def is_abs(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs"

    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Gt, ast.GtE)) and is_abs(lhs)) or (
                    isinstance(op, (ast.Lt, ast.LtE)) and is_abs(rhs)
                ):
                    found.append((module, node.lineno))
    return [f"{module}: line {line}" for module, line in sorted(set(found))]


def test_letters_are_checked_only_by_the_alphabet_set():
    assert _abs_bounds({path.name: path.read_text() for path in SOURCES}) == []


def test_detector_flags_a_letter_range_check():
    source = next(p for p in SOURCES if p.name == "words.py").read_text()
    lines = source.count("\n")
    source += "\nx == 0 or abs(x) > n\nn + 1 <= abs(x)\nabs(x) <= n\nabs(x) - n\n"
    assert _abs_bounds({"words.py": source}) == [f"words.py: line {lines + k}" for k in (2, 3)]


# The family tag may name a file's construction (words.py) and give the
# commuting pair its normal form.  Every other strategy follows from the
# relators, so a new switch on the tag anywhere else is a regression.
TAG_READERS = {"words.py": None, "oracle.py": {"normal_form"}}


def _family_tag_reads(sources: dict[str, str]) -> list[str]:
    """Reads of ``.family`` outside ``TAG_READERS``, other than the CLI's
    parsed ``args.family`` (which names a presentation to build)."""
    found = []
    for module, source in sources.items():
        for definition in ast.parse(source).body:
            allowed = TAG_READERS.get(module, set())
            if allowed is None or getattr(definition, "name", None) in allowed:
                continue
            for node in ast.walk(definition):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "family"
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args")
                ):
                    found.append(f"{module}: line {node.lineno}")
    return found


def test_family_tag_read_only_where_allowed():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert _family_tag_reads(sources) == []


def test_detector_flags_a_family_switch():
    sources = {
        "oracle.py": (
            "def normal_form(p, w):\n    return p.family\n\n\n"
            "def words_equal(p, u, v):\n    if p.family == 'surface':\n        return u\n"
        ),
        "cli.py": "def main(args):\n    return args.family, pres.family\n",
        "words.py": "def format_presentation(p):\n    return p.family\n",
    }
    assert _family_tag_reads(sources) == ["oracle.py: line 6", "cli.py: line 2"]
