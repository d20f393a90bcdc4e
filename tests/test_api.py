import ast
import pathlib
import types

import segmt


def test_all_lists_each_public_name_once():
    public = {
        name
        for name, value in vars(segmt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(segmt.__all__) == len(set(segmt.__all__))
    assert set(segmt.__all__) == public


def imported_names(tree):
    """``{name: line}`` of every name an import binds in the module, except
    ``from __future__`` features."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Every name the module reads, and every string in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(pathlib.Path(segmt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported_names(tree).items()
            if name not in used
        ]
    assert unused == []


def is_add_step(node):
    """True for ``((x & v) + v) ^ v``, Myers' add step, whatever the names."""

    def binop(node, op):
        return isinstance(node, ast.BinOp) and isinstance(node.op, op)

    return (
        binop(node, ast.BitXor)
        and binop(node.left, ast.Add)
        and binop(node.left.left, ast.BitAnd)
        and ast.dump(node.left.left.right) == ast.dump(node.left.right) == ast.dump(node.right)
    )


def test_myers_recurrence_runs_in_one_function():
    holders = []
    for path in sorted(pathlib.Path(segmt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        holders += [
            f"{path.name}:{func.lineno}: {func.name}"
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and any(map(is_add_step, ast.walk(func)))
        ]
    assert len(holders) == 1, holders
