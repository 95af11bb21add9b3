"""The library surface is what a command, an acceptance criterion or a
benchmark workload reaches.

A name-based AST scan of src/ghostcft.  The roots are

- the console script ``cli.main`` and the CLI handlers ``cmd_*``, which
  ``main`` looks up by name;
- every name read in bench/*.py, and every string in module-level code
  there: bench names functions in module-level tables (tracer.py's
  ``METHODS``, ``ACTIONS`` and ``RESIDUALS``, the runner loop of
  workloads.py) and looks them up or traces them by name;
- every name read in tests/test_acceptance.py;
- module-level code of src/ghostcft, which runs on import.

A definition is reached when its name is read by a root or by the body of a
reached definition; a dunder method when its class is reached.  A use inside
the definition itself (recursion) does not reach it, and imports and
re-exports (``__all__``) are not uses.  Every public top-level function and
class, and every public method, must be reached.  The scan matches names,
not objects, so a generic method name (``value``, ``d``) is reached by any
use of that name: it errs towards keeping code."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ghostcft"

EXEMPT = {
    # ROADMAP item 2: the exact log partner of the flow-2 log regime is built
    # from this Frobenius pair, generalised from c = 1 to integer c >= 1
    "hyp2f1_log_pair",
}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _uses(*nodes) -> set:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _table_names(tree) -> set:
    """The strings in module-level code, outside function and class bodies."""
    return {sub.value for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _definitions():
    """(path, qualname, name, class name or None, uses of its own body) for
    every top-level function and class and every method, and the names read
    by module-level code."""
    defs, module_uses = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path, node.name, node.name, None, _uses(node)))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
                defs.append((path, node.name, node.name, None,
                             _uses(*node.decorator_list, *node.bases, *rest)))
                for m in methods:
                    defs.append((path, f"{node.name}.{m.name}", m.name, node.name, _uses(m)))
            else:
                module_uses |= _uses(node)
    return defs, module_uses


def unreached() -> list:
    defs, reached = _definitions()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = _parse(path)
        reached |= _uses(tree) | _table_names(tree)
    reached |= _uses(_parse(ROOT / "tests" / "test_acceptance.py"))
    reached |= {"main"} | EXEMPT | {name for _, _, name, _, _ in defs if name.startswith("cmd_")}
    live = set()
    while True:
        new = [i for i, (_, _, name, cls, _) in enumerate(defs) if i not in live and (
            name in reached or (cls in reached and name.startswith("__")))]
        if not new:
            break
        for i in new:
            live.add(i)
            reached |= defs[i][4]
    return [f"{path.relative_to(SRC)} {qualname}"
            for i, (path, qualname, name, _, _) in enumerate(defs)
            if i not in live and not name.startswith("_")]


def test_every_public_name_is_reached():
    missing = unreached()
    assert not missing, "no command, acceptance criterion or workload reaches:\n" + "\n".join(missing)


def test_the_scan_sees_the_surface():
    # the scan finds the entry point, a class and its methods, and the
    # exemption still names a live function
    names = {qualname for _, qualname, _, _, _ in _definitions()[0]}
    assert {"main", "WardForm", "WardForm.d2"} | EXEMPT <= names
