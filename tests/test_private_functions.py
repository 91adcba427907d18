"""Every private function of the library, and every name a library module
assigns at its top level, is read in the library, so no helper, table or
constant lives on for the tests alone."""

import ast
from pathlib import Path

import pseudoboson


def test_every_private_function_is_used_in_the_library():
    sources = sorted(Path(pseudoboson.__file__).parent.glob("*.py"))
    assert sources
    defined = {}
    used = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in ast.walk(node):
                    if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                            and not name.id.startswith("__")):
                        defined[name.id] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    # a name in a docstring or comment is no use, nor is its own assignment
    unused = sorted(f"{where}: {fn}" for fn, where in defined.items()
                    if fn not in used)
    assert unused == []
