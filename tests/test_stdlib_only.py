import ast
import sys
from pathlib import Path

import tabkit


def test_the_library_imports_only_the_standard_library():
    # numpy and sympy may be installed beside the tests, so a stray import
    # would pass every other test; relative imports stay inside tabkit
    sources = sorted(Path(tabkit.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
