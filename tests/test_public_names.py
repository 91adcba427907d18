"""Every public function or class of the library is named somewhere in the
library besides its own definition, or is part of the package API in
`pseudoboson.__all__`; no public name lives on for the tests alone."""

import ast
from pathlib import Path

import pseudoboson


def test_every_public_name_is_used_in_the_library():
    sources = sorted(Path(pseudoboson.__file__).parent.glob("*.py"))
    assert sources
    defined = {}
    used = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
        # the package re-exports would make every exported name count as
        # used; the API is allowed by name below instead
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    # a name in a docstring, a comment or a module's __all__ is no use
    unused = sorted(f"{where}: {name}" for name, where in defined.items()
                    if name not in used and name not in pseudoboson.__all__)
    assert unused == []
