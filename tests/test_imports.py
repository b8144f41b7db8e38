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


def imported_modules(source: str) -> list[str]:
    """Modules named by every absolute import statement, at module level
    or inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return sorted(found)


def test_imported_modules_detected():
    src = "import numpy as np\nfrom scipy.special import xlogy\nif True:\n    import scipy\n" \
          "from . import riesz\nclass A:\n    import os\n" \
          "def f():\n    from scipy.stats import qmc\n"
    assert imported_modules(src) == ["numpy", "os", "scipy", "scipy.special", "scipy.stats"]


def function_imports(source: str) -> list[str]:
    """Line and module of every import statement inside a function body,
    nested functions included, in line order."""
    nodes = {node for fn in ast.walk(ast.parse(source))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"line {node.lineno}: "
            + (node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
            for node in sorted(nodes, key=lambda node: node.lineno)]


def test_function_imports_detected():
    src = "import os\nclass A:\n    import sys\n    def m(self):\n        import json\n" \
          "def f():\n    from .quadrature import multi_indices_upto\n    def g():\n" \
          "        import re\n"
    assert function_imports(src) == ["line 5: json", "line 7: quadrature", "line 9: re"]


def test_src_imports_at_module_level():
    # a module's dependencies are read in its header; an import inside a
    # function hides one, or repeats one the header already has
    found = {str(p.relative_to(ROOT)): function_imports(p.read_text())
             for p in (ROOT / "src").rglob("*.py")}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_src_imports_no_scipy():
    # the package runs on numpy alone; scipy is a test dependency
    found = {str(p.relative_to(ROOT)): [m for m in imported_modules(p.read_text())
                                        if m.split(".")[0] == "scipy"]
             for p in (ROOT / "src").rglob("*.py")}
    assert {path: mods for path, mods in found.items() if mods} == {}
