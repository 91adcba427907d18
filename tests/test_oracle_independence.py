"""The library never calls the libraries the tests use as an oracle, so the
two routes to every eigenvalue, solve and norm stay independent."""

import re
from pathlib import Path

import pytest

import pseudoboson

_ORACLE = re.compile(r"\b(?:numpy|np)\s*\.\s*linalg\b|\bscipy\b|\bmpmath\b|\bsympy\b"
                     r"|\bfrom\s+numpy\s+import\s[^\n]*\blinalg\b")


def test_library_does_not_reference_the_oracle():
    sources = sorted(Path(pseudoboson.__file__).parent.glob("*.py"))
    assert sources
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sources
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if _ORACLE.search(line)]
    assert hits == []


@pytest.mark.parametrize("line", ["import mpmath", "from sympy import Matrix",
                                  "np.linalg.eigvals(m)", "import scipy"])
def test_the_guard_catches_each_oracle(line):
    assert _ORACLE.search(line)
