"""The package exports nothing that only tests use.

Every public top-level function and class of `src/moldae` needs a reference
from the program: `src/moldae` itself or the benchmark scripts in `bench/`
(not `bench/moldae_frozen`, a frozen copy of an older package). A name that
only tests reach belongs in the test tree, as a helper or an oracle. Likewise
every defaulted parameter of a public top-level function needs a call in the
program that passes it: an option only tests set is a constant.

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


def _program() -> tuple[dict[str, ast.Module], list[tuple[None, ast.Module]]]:
    """The package's modules by name, and the bench scripts (module None)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    bench = [(None, ast.parse(path.read_text(encoding="utf-8"))) for path in (ROOT / "bench").glob("*.py")]
    return trees, bench


def unused_public_definitions() -> list[str]:
    trees, bench = _program()
    defined = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
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


# Defaulted parameters no program call passes, each kept for a reason.
UNSET_OPTIONS_KEPT = {
    # The in-process seam the CLI tests drive; the console script and __main__ pass nothing.
    "cli.main.argv",
    # bench/tracer.py binds `tol` by name to count probe.unconverged; bench/ changes only
    # with the benchmark, and tests/test_bench_smoke.py runs every workload traced.
    "propeval.train_probe.tol",
}


def _imported_names(tree: ast.Module, in_package: bool) -> dict[str, tuple[str, str]]:
    """Local name -> (moldae submodule, name), for every `from <submodule> import name` in the file."""
    imported: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _imported_from(node, in_package)) is not None:
            for alias in node.names:
                imported[alias.asname or alias.name] = (source, alias.name)
    return imported


def _callee(func: ast.expr, module: str | None, aliases: dict[str, str],
            imported: dict[str, tuple[str, str]]) -> tuple[str, str] | None:
    """The (module, name) a call's function expression resolves to, if it names one."""
    if isinstance(func, ast.Name):
        return imported.get(func.id, (module, func.id) if module is not None else None)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in aliases:
        return aliases[func.value.id], func.attr
    return None


def unset_keyword_options() -> list[str]:
    """`module.function.parameter` for each defaulted parameter of a public top-level
    function that no call in the program passes, by position or by keyword. A call
    with *args or **kwargs passes every parameter."""
    trees, bench = _program()
    options: dict[tuple[str, str], tuple[list[str], set[str]]] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = [arg.arg for arg in (*a.posonlyargs, *a.args)]
                defaulted = set(positional[len(positional) - len(a.defaults):])
                defaulted |= {arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
                if defaulted:
                    options[(module, node.name)] = (positional, defaulted)
    passed: dict[tuple[str, str], set[str]] = {target: set() for target in options}
    for module, tree in [*trees.items(), *bench]:
        in_package = module is not None
        aliases = _module_aliases(tree, in_package)
        imported = _imported_names(tree, in_package)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _callee(node.func, module, aliases, imported)
            if target not in options:
                continue
            positional, defaulted = options[target]
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(k.arg is None for k in node.keywords):
                passed[target] |= defaulted
            else:
                passed[target] |= {*positional[:len(node.args)], *(k.arg for k in node.keywords)}
    return sorted(f"{module}.{name}.{param}" for (module, name), (_, defaulted) in options.items()
                  for param in defaulted - passed[(module, name)])


def test_every_keyword_option_is_set_by_the_program():
    unset = unset_keyword_options()
    extra = [option for option in unset if option not in UNSET_OPTIONS_KEPT]
    assert not extra, f"defaulted parameters no program call passes (make them constants): {', '.join(extra)}"
    stale = sorted(UNSET_OPTIONS_KEPT - set(unset))
    assert not stale, f"options the program now sets, to drop from UNSET_OPTIONS_KEPT: {', '.join(stale)}"
