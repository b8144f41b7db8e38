import ast
import importlib
import pathlib
import pkgutil

import dunklosc

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {info.name: importlib.import_module(f"dunklosc.{info.name}")
           for info in pkgutil.iter_modules(dunklosc.__path__)}

# Exports that only tests call, each kept on purpose.
TEST_ONLY_EXPORTS = {
    "hermite_fn_1d": "Laguerre closed form, the oracle for the hermite_fn_all_1d recurrence",
    "heat_kernel_zeta": "(zeta, s) integrand of the heat kernel, an oracle for the closed form",
    "delta_psi": "the paper's pointwise (zeta, s) integrand, an oracle for the heat-kernel route",
    "beta_weight": "the paper's pointwise (zeta, s) integrand, an oracle for the heat-kernel route",
    "maximal_empirical": "heat maximal function on a t-grid, acceptance 13's desk-scale T_*",
}


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from dunklosc.<module> import *` and the documented API
    checked = 0
    for modname, module in MODULES.items():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"dunklosc.{modname}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 0


def test_every_allowlisted_name_is_exported():
    # an entry left on the allowlist after its name is gone would go stale silently
    exported = {name for module in MODULES.values() for name in getattr(module, "__all__", ())}
    stale = sorted(set(TEST_ONLY_EXPORTS) - exported)
    assert not stale, f"allowlisted but exported by no module: {stale}"


def test_every_exported_name_has_a_program_caller():
    # names read in src/, demos/ or perfbench/, outside the package's
    # re-exports and outside the top-level definition of the name itself
    used = set()
    paths = [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
             if p.name != "__init__.py"]
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != getattr(top, "name", None):
                    used.add(name)
    orphans = [f"{modname}.{name}" for modname, module in MODULES.items()
               for name in getattr(module, "__all__", ())
               if name not in used and name not in TEST_ONLY_EXPORTS]
    assert not orphans, f"exported but called only from tests: {orphans}"
    assert not set(TEST_ONLY_EXPORTS) & used, "an allowlisted name now has a program caller"
