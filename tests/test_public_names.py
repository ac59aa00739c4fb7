"""No public name of the library is kept alive by its own tests alone, and
no module imports a name it never uses.

Every name a module lists in ``__all__``, and every public method of a class
defined in the package, must be referenced somewhere in the package's own
source, outside its own definition.  A reference is an ``ast.Name`` or an
``ast.Attribute``; import aliases and ``__all__`` strings do not count.  The
names the package itself re-exports in ``slcsim.__all__`` are its public
API and are exempt.

Every dataclass field and every ``self.x =`` attribute of a class defined in
the package must be read, as an ``ast.Attribute`` load, somewhere in the
package's source.

Every name an ``import`` binds, in the package and in its tests, must occur
as an ``ast.Name`` in the same module.  Names the module lists in
``__all__`` are re-exports and ``from __future__`` imports are directives;
both are exempt.

No top-level name is defined in two modules of the package, so a helper
is written once: a function, a class or an assignment target, dunders
such as ``__all__`` aside.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import slcsim

SRC = Path(slcsim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(node: ast.AST | None) -> Counter:
    """How often each Name id and Attribute attr occurs under ``node``."""
    if node is None:
        return Counter()
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _candidates(module: str, tree: ast.Module, exempt: set[str]):
    """(label, name, defining node) for every public name the module offers."""
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for name in _all_names(tree):
        if name not in exempt:
            yield f"{module}.{name}", name, defs.get(name)
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield f"{module}.{cls.name}.{fn.name}", fn.name, fn


def test_every_public_name_is_reached_from_the_package():
    trees = _trees()
    exempt = set(slcsim.__all__)
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    unreached = [
        label
        for module, tree in trees.items()
        if module != "__init__"
        for label, name, node in _candidates(module, tree, exempt)
        if everywhere[name] == _references(node)[name]
    ]
    assert unreached == []


# what the public read_snapshot returns: its fields are the header a caller reads
READ_BY_CALLERS = {"SnapshotMeta"}


def _attributes(cls: ast.ClassDef) -> set[str]:
    """The dataclass fields and ``self.x =`` attributes of ``cls``."""
    names = {
        n.attr
        for n in ast.walk(cls)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    }
    if any("dataclass" in _references(d) for d in cls.decorator_list):
        names |= {
            n.target.id
            for n in cls.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
        }
    return names


def test_every_attribute_is_read_in_the_package():
    trees = _trees()
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = sorted(
        f"{module}.{cls.name}.{attr}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name not in READ_BY_CALLERS
        for attr in _attributes(cls) - read
    )
    assert unread == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in ``tree`` that no ``ast.Name`` reads."""
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all_names(tree))
    return [name for name in bound if name not in used]


def test_every_imported_name_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in paths
        for name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unused == []


def _top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module's own statements bind at top level: functions, classes
    and assignment targets, leaving out dunders such as ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_no_top_level_name_is_defined_in_two_modules():
    owners: dict[str, list[str]] = {}
    for module, tree in _trees().items():
        for name in _top_level_definitions(tree):
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
