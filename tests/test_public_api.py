"""The package keeps only code its callers use, and imports only what it uses.

Read with the standard library's ``ast``, without importing the package:

* every name that ``procpolar/__init__.py`` exports, and every function,
  class and method defined under ``src/procpolar``, is referenced somewhere
  in ``src/procpolar`` (other than ``__init__``), ``scripts/`` or
  ``suitebench/``, or is named in ``KEPT`` with the reason it stays.  A
  string equal to the name counts as a reference, because
  ``suitebench/spans.py`` wraps its layers' functions by name.  A
  classmethod counts as referenced only through its own class,
  ``Class.method`` anywhere or ``cls.method`` inside the class, so another
  class's method of the same name does not keep it.  Special methods
  (``__init__``, ``__bool__``, ...) are called by the language and need no
  reference;
* no module under ``src/procpolar`` imports a name it never uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "procpolar"

# names no library module, script or benchmark calls, with the reason each
# one stays
KEPT = {
    "verify_outcome": "the certificate check the acceptance and LP tests run on outcomes",
    "__version__": "the package version",
}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _references(tree: ast.AST) -> set[str]:
    """Names loaded, attributes read, names imported and string constants;
    an attribute read off a name also as ``name.attr``, and off ``cls``
    inside a class as ``Class.attr``."""
    out = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out.update(
                f"{cls.name}.{node.attr}"
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cls"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            if isinstance(node.value, ast.Name):
                out.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _is_classmethod(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list
    )


def _defined() -> dict[str, str]:
    """Each function, class and method the library defines, but special
    methods, with the file and line that defines it.  A classmethod is
    named ``Class.method``, everything else by its bare name."""
    out = {}
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        qualified = {
            node: f"{cls.name}.{node.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if _is_classmethod(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    where = f"{path.name}:{node.lineno}"
                    out.setdefault(qualified.get(node, name), where)
    return out


def _used() -> set[str]:
    others = list((ROOT / "scripts").glob("*.py")) + list((ROOT / "suitebench").glob("*.py"))
    used = set()
    for path in _modules() + sorted(others):
        used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_export_has_a_caller_or_a_reason():
    used = _used()
    exported = _exported()
    unused = sorted(exported - used - set(KEPT))
    assert not unused, f"exported but never called: {unused}"
    # a reason for a name that is called, or neither exported nor defined,
    # is stale
    stale = sorted(
        name
        for name in KEPT
        if name in used or name not in exported | set(_defined())
    )
    assert not stale, f"KEPT names that need no reason: {stale}"


def test_every_definition_has_a_caller_or_a_reason():
    used = _used()
    unused = sorted(
        f"{where} {name}"
        for name, where in _defined().items()
        if name not in used and name not in KEPT
    )
    assert not unused, f"defined but never called: {unused}"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".", 1)[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported(tree).items()
            if name not in loaded
        ]
    assert not unused, f"imported but never used: {unused}"
