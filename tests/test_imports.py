import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads; a name listed in
    ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_import_detected():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nfrom e import f\n" \
          "__all__ = ['f']\nprint(np.pi, c)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: d"]


def test_no_unused_imports():
    paths = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
             if p.name != "__init__.py"]
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in paths}
    assert {path: names for path, names in found.items() if names} == {}
