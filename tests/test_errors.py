import ast
import inspect
from pathlib import Path

from hoicomp import errors
from hoicomp.errors import HoicompError

PACKAGE = Path(errors.__file__).parent


def raised_names() -> set[str]:
    """Names in the expression of a ``raise`` anywhere in the package, plus
    the names passed to a function that raises one of its own parameters
    (as ``synthdata._check_rows`` raises the class it is given)."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    names, raisers = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
            if isinstance(node, ast.FunctionDef):
                params = {a.arg for a in node.args.args}
                if any(isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
                       and isinstance(r.exc.func, ast.Name) and r.exc.func.id in params
                       for r in ast.walk(node)):
                    raisers.add(node.name)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in raisers:
                names |= {a.id for a in node.args if isinstance(a, ast.Name)}
    return names


def test_every_error_class_is_a_package_error_that_is_raised():
    classes = [c for c in vars(errors).values()
               if inspect.isclass(c) and c.__module__ == errors.__name__]
    assert len(classes) > 10
    assert [c.__name__ for c in classes if not issubclass(c, HoicompError)] == []
    raised = raised_names()
    assert [c.__name__ for c in classes if c.__name__ not in raised] == []
