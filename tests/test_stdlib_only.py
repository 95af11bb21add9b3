"""The runtime stays standard-library only: every module under
src/ghostcft imports only the standard library and ghostcft itself."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ghostcft"


def test_runtime_imports_are_stdlib_or_ghostcft():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside ghostcft
            for name in names:
                top = name.split(".")[0]
                if top != "ghostcft" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(SRC)}: {name}")
    assert not foreign, foreign
