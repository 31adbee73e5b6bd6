"""The sources keep to 100 columns, import only what they use and export nothing."""

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
    """Names the module imports but never reads."""
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


def test_the_package_exports_nothing():
    """rbx is used through its submodules: the package holds only its docstring
    and no module names an `__all__`."""
    package = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(package) and len(package.body) == 1
    named = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__"
    ]
    assert named == []
