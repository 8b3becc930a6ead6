"""Every package and test module uses each name it imports, and every name
the package defines is used somewhere.

No linter ships with the test dependencies, so these stdlib checks stand in
for one.  A deletion that leaves an import behind fails here; package
__init__ files are skipped by that check, since they import names to
re-export them.  A top-level function or class, or a non-dunder method, that
no code in src/, tests/ or bench/ refers to outside its own definition
fails here too (a mention in a comment or docstring is no reference), and
so do a field of a package NamedTuple that no code there reads as an
attribute and an __all__ entry that does not resolve.  Last, the command line
must start without `dataclasses`, `inspect`, `argparse`, `gettext` or
`locale`, and each command must run only the stage modules and exactcore
submodules it calls: no command runs exactcore.linalg, analyze, words and
density run no exactcore.quadratic (words --at-d no exactcore module at
all), only a cycle complement's embed runs cyclecheck, only embed and
verify run coxcert.certificate, and --help runs no fractions.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxcert"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
CORPUS = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport json\nimport a.b as c\nprint(sep, c)\n"
    assert unused_imports(source) == ["path (line 1)", "json (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", TESTS, ids=lambda p: p.name)
def test_no_unused_import_in_tests(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of the classes.

    A module-level __getattr__ is skipped too: the interpreter calls that
    hook (PEP 562), as it calls dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)) and node.name != "__getattr__":
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def references(tree: ast.AST) -> Counter:
    """The names tree reads: names, attributes, imported names and aliases,
    and string constants that are identifiers (such as a name the benchmark
    tracer looks up).  Comments and prose in docstrings do not count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split(".") + ([node.asname] if node.asname else []))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def unreferenced(source: str, corpus_refs: Counter) -> list[str]:
    """Names defined in source that corpus_refs counts only inside their definitions.

    corpus_refs holds the references of every file searched, source included.
    """
    return [
        f"{node.name} (line {node.lineno})"
        for node in _definitions(ast.parse(source))
        if corpus_refs[node.name] <= references(node)[node.name]
    ]


def test_the_check_sees_an_unreferenced_name():
    source = (
        "def used():\n    \"\"\"Calls told() in prose only.\"\"\"\n    return used()\n\n"
        "def dead():\n    return dead()\n\n"
        "def told():\n    return 0\n\n"
        "def looked_up():\n    return 0\n\n"
        "class C:\n    def m(self):\n        return self.m\n\n    def __len__(self):\n        return 0\n"
    )
    refs = references(ast.parse(source + "used(); C()  # told\ngetattr(C, 'looked_up')\n"))
    assert unreferenced(source, refs) == ["dead (line 5)", "told (line 8)", "m (line 15)"]


def test_every_package_definition_is_referenced():
    refs = sum((references(ast.parse(path.read_text(encoding="utf-8"))) for path in CORPUS), Counter())
    found = {
        str(path.relative_to(PACKAGE)): unreferenced(path.read_text(encoding="utf-8"), refs)
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: dead for name, dead in found.items() if dead} == {}


def record_fields(tree: ast.Module):
    """(class, field, line) for each field of each top-level NamedTuple class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "NamedTuple" for base in node.bases):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def attribute_reads(tree: ast.AST) -> Counter:
    """The attribute names tree reads as `x.name`; a store, an unpacking or a string does not count."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def unread_fields(source: str, reads: Counter) -> list[str]:
    """Fields of the records source defines that reads never reads as an attribute."""
    return [f"{cls}.{field} (line {line})" for cls, field, line in record_fields(ast.parse(source)) if not reads[field]]


def test_the_check_sees_an_unread_field():
    source = (
        "from typing import NamedTuple\n\n"
        "class R(NamedTuple):\n    read: int\n    unpacked: int\n    stored: int\n\n"
        "class Plain:\n    kept: int\n"
    )
    reads = attribute_reads(ast.parse(source + "r = R(1, 2, 3)\nprint(r.read)\n_, u, _ = r\nr.stored = getattr(r, 'kept')\n"))
    assert unread_fields(source, reads) == ["R.unpacked (line 5)", "R.stored (line 6)"]


def test_every_record_field_is_read():
    # A field that no code reads copies what its reader already holds, or nothing.
    reads = sum((attribute_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in CORPUS), Counter())
    found = {
        str(path.relative_to(PACKAGE)): unread_fields(path.read_text(encoding="utf-8"), reads)
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: unread for name, unread in found.items() if unread} == {}


@pytest.mark.parametrize("module", ["coxcert", "coxcert.exactcore"])
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_a_fresh_import_serves_every_submodule_as_an_attribute():
    # In a fresh interpreter `import coxcert` has run none of them: the stage
    # modules are bound lazily, and __getattr__ imports the other three.  Those
    # come first, since running a stage module imports them.
    names = ("diagram", "errors", "exactcore", "cyclecheck", "gram", "liealg", "units", "vinberg", "words")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import coxcert;"
        " print(*(getattr(coxcert, n).__name__ for n in sys.argv[2:]))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), *names], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [f"coxcert.{name}" for name in names]


def test_a_fresh_exactcore_runs_its_submodules_only_when_a_name_is_read():
    # The submodules sit in sys.modules from the start, registered lazily;
    # a module that ran is a plain module again.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import coxcert.exactcore as core;"
        " ran = lambda: sorted(n for n, m in list(sys.modules.items()) if n.startswith('coxcert.exactcore.')"
        " and type(m) is type(sys)); print(*ran());"
        " missing = [name for name in core.__all__ if not hasattr(core, name)]; print(*missing); print(*ran())"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    before, missing, after = run.stdout.split("\n")[:3]
    assert (before, missing) == ("", "")
    assert after.split() == [f"coxcert.exactcore.{name}" for name in ("linalg", "poly", "quadratic")]


STAGE_MODULES = {f"coxcert.{name}" for name in ("cyclecheck", "gram", "liealg", "units", "vinberg", "words")}
LINALG, POLY, QUADRATIC = (f"coxcert.exactcore.{name}" for name in ("linalg", "poly", "quadratic"))
PATH5 = "n 5\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\n"
CC5 = "n 5\nedge 1 3\nedge 1 4\nedge 2 4\nedge 2 5\nedge 3 5\n"


def test_the_command_line_starts_without_dataclasses_or_inspect():
    # Each benchmark command is a fresh interpreter, so whatever `python -m
    # coxcert` imports is paid on every command; the first two cost about
    # 10 ms, argparse with `gettext` and `locale` about 5 ms, and `json`,
    # which only `embed` and `verify` need, 2-3 ms.  Only those two run
    # `coxcert.certificate`, and a command line that runs no command (no
    # arguments, `--help`) runs no `fractions` either.  The stage modules and
    # exactcore's submodules sit in sys.modules from the start but run on
    # first use; a module that ran is a plain module again, and reading its
    # type does not run it.  Each case gives the command's input and names
    # modules that must not run and ones that must.  No arguments is a usage
    # error, which main returns as 2.
    code = (
        "import atexit, sys; sys.path.insert(0, sys.argv[1]); import coxcert.cli;"
        " ran = lambda: [name for name, m in list(sys.modules.items()) if type(m) is type(sys)];"
        " atexit.register(lambda: print('modules:', *ran(), sep=chr(10)));"
        " sys.exit(coxcert.cli.main(sys.argv[2:]))"
    )
    idle = STAGE_MODULES | {"coxcert.exactcore", "coxcert.certificate", "fractions", "json"}
    certificate = "coxcert.certificate"
    cases = [
        ([], PATH5, idle, {"coxcert.diagram"}),
        (["--help"], PATH5, idle, {"coxcert.diagram"}),
        (
            ["analyze", "-"],
            PATH5,
            STAGE_MODULES - {"coxcert.gram"} | {LINALG, QUADRATIC, certificate, "json"},
            {"coxcert.gram", POLY},
        ),
        (
            ["words", "-", "--at-d", "3/2"],
            PATH5,
            STAGE_MODULES - {"coxcert.words"} | {"coxcert.exactcore", LINALG, POLY, QUADRATIC, certificate, "json"},
            {"coxcert.words"},
        ),
        (
            ["words", "-"],
            PATH5,
            STAGE_MODULES - {"coxcert.gram", "coxcert.words"} | {LINALG, QUADRATIC, certificate, "json"},
            {"coxcert.gram", "coxcert.words", POLY},
        ),
        (
            ["density", "-"],
            PATH5,
            STAGE_MODULES - {"coxcert.gram", "coxcert.liealg"} | {LINALG, QUADRATIC, certificate, "json"},
            {"coxcert.gram", "coxcert.liealg", POLY},
        ),
        (["embed", "-"], PATH5, {"coxcert.cyclecheck", LINALG}, STAGE_MODULES - {"coxcert.cyclecheck"} | {certificate}),
        (["embed", "-"], CC5, {LINALG}, STAGE_MODULES | {certificate}),
    ]
    for argv, diagram, not_run, run_too in cases:
        run = subprocess.run(
            [sys.executable, "-S", "-c", code, str(ROOT / "src"), *argv],
            input=diagram,
            capture_output=True,
            text=True,
        )
        assert run.returncode == (0 if argv else 2), (argv, run.stderr)
        loaded = set(run.stdout.split("modules:\n")[-1].split())
        assert {"coxcert.cli"} | run_too <= loaded, argv
        assert loaded & ({"dataclasses", "inspect", "argparse", "gettext", "locale"} | not_run) == set(), argv


def test_help_prints_the_usage_line_on_stdout_alone():
    # The benchmark's start-up launches check for this line.
    run = subprocess.run([sys.executable, "-m", "coxcert", "--help"], capture_output=True, text=True, cwd=ROOT / "src")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: coxcert")

