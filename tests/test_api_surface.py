"""The package exports nothing that only tests use.

Every public top-level function and class of `src/moldae` needs a reference
from the program: `src/moldae` itself or the benchmark scripts in `bench/`
(not `bench/moldae_frozen`, a frozen copy of an older package). A name that
only tests reach belongs in the test tree, as a helper or an oracle.

A reference is a bare name in the defining module, a `from .mod import name`
(or `from moldae.mod import name`), or `alias.name` where `alias` is bound to
the module by an import. A reference from inside a top-level definition
counts only when that definition is itself referenced, so liveness runs from
module-level code to a fixpoint, and a definition used only by a dead one is
dead too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moldae"
SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _module_aliases(tree: ast.Module, in_package: bool) -> dict[str, str]:
    """Local name -> moldae submodule, for every module import in the file."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "moldae" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            package = node.module == "moldae" or (in_package and node.level == 1 and node.module is None)
            if package:
                for alias in node.names:
                    if alias.name in SUBMODULES:
                        aliases[alias.asname or alias.name] = alias.name
    return aliases


def _imported_from(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The moldae submodule that `from <module> import ...` reads names from, if any."""
    if in_package and node.level == 1 and node.module in SUBMODULES:
        return node.module
    parts = (node.module or "").split(".")
    if node.level == 0 and parts[0] == "moldae" and len(parts) == 2:
        return parts[1]
    return None


def _references(tree: ast.Module, module: str | None, defined: set[tuple[str, str]]):
    """(referenced (module, name), owner) pairs; owner is the enclosing top-level
    definition of `module` in the package, or None for module-level code and the bench."""
    aliases = _module_aliases(tree, module is not None)
    for statement in tree.body:
        owner = None
        if module is not None and isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = (module, statement.name)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and module is not None:
                target = (module, node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                target = (aliases[node.value.id], node.attr)
            elif isinstance(node, ast.ImportFrom):
                source = _imported_from(node, module is not None)
                for alias in node.names:
                    if (source, alias.name) in defined:
                        yield (source, alias.name), owner
                continue
            else:
                continue
            if target in defined and target != owner:
                yield target, owner


def unused_public_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    defined = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    bench = [(None, ast.parse(path.read_text(encoding="utf-8"))) for path in (ROOT / "bench").glob("*.py")]
    owners: dict[tuple[str, str], set] = {}
    for module, tree in [*trees.items(), *bench]:
        for target, owner in _references(tree, module, defined):
            owners.setdefault(target, set()).add(owner)
    live: set[tuple[str, str]] = set()
    grew = True
    while grew:
        grew = False
        for target, by in owners.items():
            if target not in live and any(owner is None or owner in live for owner in by):
                live.add(target)
                grew = True
    return sorted(f"{module}.{name}" for module, name in defined - live if not name.startswith("_"))


def test_every_public_definition_has_a_caller_in_the_program():
    unused = unused_public_definitions()
    assert not unused, f"public definitions with no caller outside the tests: {', '.join(unused)}"
