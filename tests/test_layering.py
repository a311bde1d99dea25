"""The integer layers stay below the ring layers.

monodromy, geometry, groupoid and reconstruct work over int and Fraction
and the free-group words only; the group ring, the ring matrices and the
word cocycles built on them are not theirs to import.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import braidmono

INTEGER_LAYERS = ("monodromy", "geometry", "groupoid", "reconstruct")
RING_LAYERS = {"cocycles", "groupring", "matrices"}


def imported_modules(path):
    """Last dotted component of every module an import in path names."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" names module x; "from .x import y" names x
            names = [node.module] if node.module else [a.name for a in node.names]
        else:
            continue
        for name in names:
            yield name.rsplit(".", 1)[-1]


def test_integer_layers_do_not_import_ring_layers():
    src = Path(braidmono.__file__).parent
    for mod in INTEGER_LAYERS:
        bad = RING_LAYERS.intersection(imported_modules(src / f"{mod}.py"))
        assert not bad, f"{mod} imports {sorted(bad)}"


def test_all_is_the_names_the_package_imports():
    """__all__ spells out the names __init__ binds from the package's
    modules, in import order: every public name the package holds that is
    not a submodule, each the object its module defines."""
    tree = ast.parse(Path(braidmono.__file__).read_text())
    imports = [(node.module, a.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for a in node.names]
    assert braidmono.__all__ == [name for _, name in imports]
    for module, name in imports:
        owner = importlib.import_module(f"braidmono.{module}")
        assert getattr(braidmono, name) is getattr(owner, name), name
    public = {name for name, x in vars(braidmono).items()
              if not name.startswith("_") and not isinstance(x, ModuleType)}
    assert public == set(braidmono.__all__)
