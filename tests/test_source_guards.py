"""Static checks over the package source."""

import ast
import pathlib

import jacobi_spectra

PACKAGE = pathlib.Path(jacobi_spectra.__file__).parent


def unread_parameters(source: str) -> list[str]:
    """"line name: parameters" of every def in source that declares a parameter
    its body never reads (a read in a nested function counts). ``@criterion``
    checks are exempt: the registry fixes their (rng) signature, and a
    deterministic check draws nothing from it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "criterion"
               for d in fn.decorator_list):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread = [p for p in params if p not in read]
        if unread:
            found.append(f"{fn.lineno} {fn.name}: {', '.join(unread)}")
    return found


def test_every_function_reads_every_parameter():
    # a parameter the code never reads is a value the caller must supply for
    # nothing, and a copy that can silently disagree with what the code derives
    found = {path.name: unread_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_unread_parameter_guard_sees_a_dropped_read():
    source = (
        "def kept(g, d):\n    return g + d\n"
        "def dropped(g, d):\n    return g\n"
        "def closure(d):\n    def inner():\n        return d\n    return inner\n"
        "@criterion('C00', 'deterministic', 0.0, 1.0)\ndef check(rng):\n    return 0.0\n"
    )
    assert unread_parameters(source) == ["3 dropped: d"]


def warnings_imports(source: str) -> list[int]:
    """Line of every import of the warnings module in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "warnings" for m in modules):
            found.append(node.lineno)
    return found


def test_no_module_imports_warnings():
    # the library reports a diagnostic as a value and the CLI prints it; a
    # warning would reach the user only through whatever filter is set
    found = {path.name: warnings_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_warnings_guard_sees_every_import_form():
    source = (
        "import math\nimport warnings\n"
        "from warnings import warn\n"
        "def f():\n    import warnings as w\n    return w\n"
        "from .errors import ParameterDomainError\n"
    )
    assert warnings_imports(source) == [2, 3, 5]


def private_trieig_imports(source: str) -> list[str]:
    """"line name" of every name starting with _ that source imports from the
    package's trieig module, relatively or by its absolute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if module in (".trieig", "jacobi_spectra.trieig"):
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_only_trieig_uses_its_private_solvers():
    # eig_tridiag alone picks the LAPACK route (dsterf or half-size dqds) from
    # the matrix it is given; a caller reaching past it would pick a second way
    found = {path.name: private_trieig_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "trieig.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_trieig_guard_sees_every_import_form():
    source = (
        "from .trieig import Spectrum, _eig_zero_diagonal\n"
        "from .ensemble import _exact_scale\n"
        "def f():\n    from jacobi_spectra.trieig import _dsterf as d\n    return d\n"
        "from .trieig import eig_tridiag\n"
    )
    assert private_trieig_imports(source) == ["1 _eig_zero_diagonal", "4 _dsterf"]
