"""Every private function of the library has a caller in the library, so no
helper lives on for the tests alone."""

import ast
from pathlib import Path

import pseudoboson


def test_every_private_function_is_used_in_the_library():
    sources = sorted(Path(pseudoboson.__file__).parent.glob("*.py"))
    assert sources
    defined = {}
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    # a name in a docstring or comment is no use
    unused = sorted(f"{where}: {fn}" for fn, where in defined.items()
                    if fn not in used)
    assert unused == []
