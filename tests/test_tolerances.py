"""Every tolerance of ``src/occlp`` is an entry of ``occlp.tolerances``, and no
function keeps a defaulted tolerance, scan or block size that a caller could
set per call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "occlp"
KNOB_WORDS = ("tol", "resolution", "chunk", "density")


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_no_function_keeps_a_defaulted_tolerance_or_size_parameter():
    knobs = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            knobs += [f"{name}:{node.lineno} {arg.arg}" for arg in defaulted
                      if any(word in arg.arg for word in KNOB_WORDS)]
    assert knobs == []


def test_only_the_tolerance_table_binds_a_tol_name():
    bound = []
    for name, tree in _trees().items():
        if name == "tolerances.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.alias):  # import X_TOL, from m import X_TOL
                names = [node.asname or node.name.rpartition(".")[2]]
            elif isinstance(node, (ast.arg, ast.FunctionDef, ast.ClassDef)):
                names = [getattr(node, "arg", None) or node.name]
            else:
                continue
            bound += [f"{name}: {n}" for n in names if n.endswith("_TOL")]
    assert bound == []
