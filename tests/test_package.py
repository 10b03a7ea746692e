import importlib

import pytest

import knotalg


def test_every_public_name_is_its_defining_modules_object():
    for name in knotalg.__all__:
        module = importlib.import_module(f"knotalg.{knotalg._ORIGIN[name]}")
        assert getattr(knotalg, name) is getattr(module, name), name
    from knotalg import errors, expr  # submodules still import through the package

    assert expr.ExprSyntaxError is errors.ExprSyntaxError


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from knotalg import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(knotalg.__all__)
    for name in knotalg.__all__:
        assert namespace[name] is getattr(knotalg, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        knotalg.no_such_name
    assert not hasattr(knotalg, "state_sum_bracket")
    assert set(knotalg.__all__) <= set(dir(knotalg))


def test_bracket_is_the_function_after_its_module_loads(python_child):
    # tensor loads the knotalg.bracket module before anything asks for the name.
    code = (
        "import knotalg.tensor\n"
        "from knotalg import bracket, parse\n"
        "assert callable(bracket)\n"
        "print(bracket(parse('O O')))\n"
    )
    child = python_child("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "-A^4 - A^-4\n"


def loaded_after(python_child, argv):
    code = (
        "import sys\n"
        "from knotalg import cli\n"
        f"assert cli.run({argv!r}).code == 0\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'knotalg'))\n"
    )
    child = python_child("-c", code)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


def test_cli_imports_only_what_the_subcommand_runs(python_child):
    allowed = {"knotalg", "knotalg.cli", "knotalg.errors", "knotalg.rational"}
    assert loaded_after(python_child, ["fraction", "3/5"]) <= allowed
    unwanted = {f"knotalg.{name}" for name in ("tensor", "graph", "oracle", "enumeration", "bracket")}
    assert not loaded_after(python_child, ["eval", "O"]) & unwanted
