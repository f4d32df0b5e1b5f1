"""Every public function, class and method of ``dominantk`` is read by code
in the library (``__init__.py`` aside) or in ``bench/``; a name that only its
own tests call is deleted, or listed in ``ALLOWED`` with a reason.  A name in
a comment or a docstring reaches nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dominantk"

ALLOWED = {
    "ambient_dominance_oracle": "an oracle: the weight-by-weight route of ambient_dominance_test",
    "splitting_maps": "the paper's splitting maps",
    "nerve_complex": "goes with the simplicial truncation once it is built from cubes",
    "weyl_denominator": "goes with exact_divide once the benchmark stops patching it",
    "inverse": "group API that the double-coset test references conjugate with;"
               " no library path builds an inverse",
    **dict.fromkeys(
        ("coxeter_matrix", "is_finite", "lmul_gen", "rmul_gen", "subgroup_elements"),
        "group API that the test references build on"),
}


def _definitions(tree):
    """Public top-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _references(tree):
    """Names the code reads: names, attributes, imported names, keyword
    arguments, and string constants (a ``getattr`` or a patch by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_is_reached():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    library = [ast.parse(path.read_text(encoding="utf-8")) for path in modules]
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "bench").glob("*.py"))]
    defined = {name for tree in library for name in _definitions(tree)}
    reached = {name for tree in library + bench for name in _references(tree)}
    unreached = defined - reached
    assert sorted(unreached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unreached) == []  # no reason outlives its need
