"""Static checks over the package source."""

import argparse
import ast
import inspect
import pathlib

import jacobi_spectra
from jacobi_spectra import cli

PACKAGE = pathlib.Path(jacobi_spectra.__file__).parent
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


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


def unread_flags(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """"command: dest" of every flag a subcommand of parser accepts whose dest is
    never read as <args>.<dest>, in the subcommand's ``fn`` (defined in source)
    or in a function of source that it passes its args to, under that
    function's name for them."""
    defs = {f.name: f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)}

    def reads(name: str, var: str) -> set[str]:
        out = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == var:
                out.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs:
                callee = defs[node.func.id]
                out |= {r for i, a in enumerate(node.args) if getattr(a, "id", None) == var
                        for r in reads(callee.name, callee.args.args[i].arg)}
        return out

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = []
    for command, sp in sub.choices.items():
        fn = defs[sp.get_default("fn").__name__]
        read = reads(fn.name, fn.args.args[0].arg)
        found += [f"{command}: {a.dest}" for a in sp._actions
                  if a.option_strings and a.dest != "help" and a.dest not in read]
    return found


def test_every_flag_a_subcommand_accepts_is_read():
    # a flag the subcommand never reads is accepted and silently does nothing
    assert unread_flags(cli.build_parser(), inspect.getsource(cli)) == []


def test_unread_flag_guard_sees_a_dropped_read():
    source = (
        "def cmd(args):\n    return _params(args, 1)\n"
        "def _params(ns, k):\n    return ns.n + k\n"
    )
    ap = argparse.ArgumentParser()
    sp = ap.add_subparsers().add_parser("run")
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)

    def cmd(args):  # the guard reads the source above, not this body
        pass

    sp.set_defaults(fn=cmd)
    assert unread_flags(ap, source) == ["run: seed"]


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """"line name" of every private name (one leading _, not a dunder) that
    source takes from elsewhere: imported from a module of the package,
    relatively or by its absolute name, aliased or not, or read as x._name on
    any object x but self. Imports from outside the package are not checked."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "jacobi_spectra":
                found += [f"{node.lineno} {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{node.lineno} {node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    # a helper that another module needs is part of its owner's public surface;
    # a private reach lets one module lean on another's internals, such as
    # eig_tridiag's LAPACK route choice, and the demos show only the public API
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    found = {path.name: private_reaches(path.read_text(encoding="utf-8"))
             for path in [*sorted(PACKAGE.rglob("*.py")), *demos]}
    assert {name: reaches for name, reaches in found.items() if reaches} == {}


def test_private_reach_guard_sees_every_reach_form():
    source = (
        "from .trieig import Spectrum, _eig_zero_diagonal\n"
        "from .ensemble import _exact_scale\n"
        "def f():\n    from jacobi_spectra.trieig import _dsterf as d\n    return d\n"
        "from .trieig import eig_tridiag\n"
        "key = rng._call_key()\n"
        "from numpy.linalg import _umath_linalg\n"
        "from numpy import __config__\n"
        "def _own(x):\n    return x.__class__\n"
        "class S:\n    def g(self):\n        return self._pos + _own(self._key)\n"
    )
    assert private_reaches(source) == [
        "1 _eig_zero_diagonal", "2 _exact_scale", "4 _dsterf", "7 _call_key"]


# callee -> the functions, as module.name, that may call it: monte_carlo_esd
# and f_eigs_tridiag are the only code that turns a realization into scaled or
# F values, so a change to how a regime or transform reads a realization (a
# resolution guard, another solver route, a centred build) lands in them alone
SCALED_USE_OWNERS = {
    "scale_eigenvalues": {"spectra.monte_carlo_esd"},
    "jacobi_to_f": {"fmatrix.f_eigs_tridiag"},
    "realize": {"spectra.monte_carlo_esd", "fmatrix.f_eigs_tridiag",
                "spectra.deviation_report", "cli.cmd_sample"},
}


def located_nodes(module: str, tree: ast.Module):
    """(caller, node) for every node of tree, the caller being module.name of
    the top-level def or class that holds it (a nested function or lambda
    counts as it), or module.<module>."""
    for top in tree.body:
        caller = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            yield caller, node


def scaled_use_calls(module: str, source: str) -> list[str]:
    """"line caller callee" of every call in source to a name of
    SCALED_USE_OWNERS from outside its owners, the caller as located_nodes
    names it."""
    found = []
    for caller, node in located_nodes(module, ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if callee in SCALED_USE_OWNERS and caller not in SCALED_USE_OWNERS[callee]:
                found.append(f"{node.lineno} {caller} {callee}")
    return found


def test_only_the_two_owners_scale_or_map_a_realization():
    found = {path.name: scaled_use_calls(path.stem, path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_scaled_use_guard_sees_every_caller():
    source = (
        "def monte_carlo_esd(p, s, trials, rng):\n"
        "    def scaled(sub):\n"
        "        return scale_eigenvalues(realize(p, sub)[1], s, 'plain')\n"
        "    return run_trials(scaled, trials, rng)\n"
        "def compare(p, s, rng):\n"
        "    return scale_eigenvalues(spectra.realize(p, rng)[1], s, 'plain')\n"
        "MAPS = {'f': lambda lam, d: jacobi_to_f(lam, d)}\n"
        "class Route:\n    def f(self, lam, d):\n        return fmatrix.jacobi_to_f(lam, d)\n"
    )
    assert scaled_use_calls("spectra", source) == [
        "6 spectra.compare scale_eigenvalues", "6 spectra.compare realize",
        "7 spectra.<module> jacobi_to_f", "10 spectra.Route jacobi_to_f"]
    assert scaled_use_calls("cli", "def cmd_sample(p, rng):\n    return realize(p, rng)\n") == []


# the only functions that may move a stream: every draw takes its words from one
# call_key, so a stream's position counts its calls and no draw's size moves
# the words of the calls after it
POS_MOVERS = {"betarand.RngStream.__init__", "betarand.RngStream.call_key"}


def qualified_nodes(module: str, tree: ast.Module):
    """(name, node) for every node of tree, the name module.Class.function of
    the defs and classes that hold it, or module at the top level."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            yield name, child
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from walk(child, f"{name}.{child.name}" if inner else name)
    yield from walk(tree, module)


def pos_writes(module: str, source: str) -> list[str]:
    """"line name" of every assignment, augmented or not, to an attribute
    _pos in source outside POS_MOVERS, the name as qualified_nodes gives it."""
    return [f"{node.lineno} {name}" for name, node in qualified_nodes(module, ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_pos"
            and isinstance(node.ctx, ast.Store) and name not in POS_MOVERS]


def test_only_call_key_moves_a_stream():
    found = {path.name: pos_writes(path.stem, path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: writes for name, writes in found.items() if writes} == {}


def test_pos_guard_sees_every_write():
    source = (
        "class RngStream:\n"
        "    def __init__(self):\n        self._pos = 0\n"
        "    def call_key(self):\n        self._pos += 1\n        return self._pos\n"
        "    def uniforms(self, k):\n        self._pos += k\n"
        "    def seek(self, x):\n        self._pos = x\n"
        "def rewind(s):\n    s._pos -= 1\n    return s._pos\n"
    )
    assert pos_writes("betarand", source) == [
        "8 betarand.RngStream.uniforms", "10 betarand.RngStream.seek", "12 betarand.rewind"]
    assert pos_writes("spectra", source)[:2] == [
        "3 spectra.RngStream.__init__", "5 spectra.RngStream.call_key"]


# the one function that may write to stderr: the library returns its
# diagnostics as values or raises them, and cli.main prints the error of a
# failed run, so a run that succeeds writes nothing there
STDERR_WRITERS = {"cli.main"}


def stderr_uses(module: str, source: str) -> list[str]:
    """"line caller" of every use of stderr in source outside STDERR_WRITERS:
    sys.stderr under any name sys is imported as, or an import of stderr from
    sys, the caller as located_nodes names it."""
    tree = ast.parse(source)
    sys_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names if a.name == "sys"}
    found = []
    for caller, node in located_nodes(module, tree):
        named = (isinstance(node, ast.Attribute) and node.attr == "stderr"
                 and isinstance(node.value, ast.Name) and node.value.id in sys_names)
        imported = (isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(a.name == "stderr" for a in node.names))
        if (named or imported) and caller not in STDERR_WRITERS:
            found.append(f"{node.lineno} {caller}")
    return found


def test_only_cli_main_writes_to_stderr():
    found = {path.name: stderr_uses(path.stem, path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_stderr_guard_sees_every_use():
    source = (
        "import sys\n"
        "def report(x):\n    print(x, file=sys.stderr)\n"
        "def write(x):\n    sys.stderr.write(x)\n"
        "from sys import stderr\n"
        "import sys as s\n"
        "def alias(x):\n    return s.stderr\n"
        "def local():\n    from sys import stderr as e\n    return e\n"
        "def main(argv):\n    print(argv, file=sys.stderr)\n"
        "def out(r):\n    sys.stdout.write(r.stderr)\n"
    )
    assert stderr_uses("cli", source) == [
        "3 cli.report", "5 cli.write", "6 cli.<module>", "9 cli.alias", "11 cli.local"]
    assert stderr_uses("spectra", source)[-1] == "14 spectra.main"
