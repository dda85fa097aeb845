"""The package runs on every numpy that pyproject.toml allows (>= 1.24).

These names exist only in numpy >= 2.0, so a test run on numpy 2 alone
cannot catch them; the source is scanned for them instead.
"""

import ast
from pathlib import Path

import qtesters

NUMPY2_NAMES = {"mT", "mH", "vecdot", "matrix_transpose", "unstack", "permute_dims", "concat",
                "isdtype"}


def numpy2_names(source: str) -> list:
    """(line, name) of every attribute, name or imported name in NUMPY2_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.name if isinstance(node, ast.alias) else None)
        if name in NUMPY2_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_scanner_finds_each_form():
    src = "x = a.mT\ny = np.vecdot(a, b)\nfrom numpy import concat\nz = isdtype\n"
    assert numpy2_names(src) == [(1, "mT"), (2, "vecdot"), (3, "concat"), (4, "isdtype")]


def test_package_uses_no_numpy2_only_names():
    package = Path(qtesters.__file__).parent
    found = {path.name: numpy2_names(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
