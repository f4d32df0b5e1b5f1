"""Every public function, class and method of ``dominantk`` is named
somewhere in the library besides its own ``def`` (``__init__.py`` aside) or
in ``bench/``; a name that only its own tests call is deleted, or listed in
``ALLOWED`` with a reason."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dominantk"

ALLOWED = {
    "ambient_dominance_oracle": "an oracle: the weight-by-weight route of ambient_dominance_test",
    "splitting_maps": "the paper's splitting maps",
    "nerve_complex": "goes with the simplicial truncation once it is built from cubes",
    "weyl_denominator": "goes with exact_divide once the benchmark stops patching it",
    **dict.fromkeys(
        ("coxeter_matrix", "descent_set", "is_finite", "lmul_gen", "multiply", "rmul_gen",
         "subgroup_elements"),
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


def test_every_public_name_is_reached():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    sources = [path.read_text(encoding="utf-8") for path in modules]
    defined = Counter(name for text in sources for name in _definitions(ast.parse(text)))
    text = "\n".join(sources + [path.read_text(encoding="utf-8")
                                for path in sorted((ROOT / "bench").glob("*.py"))])
    unreached = {name for name, defs in defined.items()
                 if len(re.findall(rf"\b{name}\b", text)) == defs}
    assert sorted(unreached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unreached) == []  # no reason outlives its need
