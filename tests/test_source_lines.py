"""The sources keep to 100 columns and import only what they use."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rbx"

# rbxbench/tracer.py rebinds these by name in the modules that import them
TRACER_BOUND = {("identities.py", "permutations"), ("yangbaxter.py", "double_product")}


def test_no_source_line_is_wider_than_100_columns():
    wide = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert wide == []


def _unused_imports(path: pathlib.Path) -> list:
    """Names the module imports but never reads; names in its __all__ count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read)


def test_no_source_module_imports_a_name_it_does_not_use():
    unused = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(path)
    ]
    assert sorted(set(unused) - TRACER_BOUND) == []
    # an exception that a module has started to use comes off the list
    assert sorted(TRACER_BOUND - set(unused)) == []
