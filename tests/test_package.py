import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

import hadwalk

#: Modules the tests use as oracles or runners; none is a runtime dependency.
TEST_ONLY_MODULES = ("scipy", "mpmath", "sympy", "hypothesis", "pytest")


ROOT = Path(__file__).resolve().parents[1]


def project_table() -> dict:
    with (ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_test_extra_lists_the_test_only_modules():
    # pip install -e .[test] brings exactly what the tests import beyond numpy
    extra = project_table()["optional-dependencies"]["test"]
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in extra]
    assert sorted(names) == sorted(TEST_ONLY_MODULES)


def test_sources_parse_at_the_python_floor():
    """Every .py file under src/ and tests/ parses with the grammar of the
    oldest Python that requires-python admits, so syntax newer than that
    floor (except*, PEP 695 type parameters) fails here on any newer
    interpreter.  It checks syntax only: a library call added after the
    floor, such as a new stdlib function, still parses."""
    floor = tuple(map(int, re.fullmatch(r">=\s*(\d+)\.(\d+)",
                                        project_table()["requires-python"]).groups()))
    paths = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


#: Every hadwalk module but the package itself.
ALL_LAYERS = ["hadwalk.classical", "hadwalk.exactnum", "hadwalk.genfun", "hadwalk.pathsum",
              "hadwalk.specfun", "hadwalk.verify", "hadwalk.walk"]

#: What a fresh interpreter holds of hadwalk after importing one module alone:
#: the package itself and the layers that module imports, never numpy, which
#: only the float engine's methods import.  No route module imports another:
#: walk (direct), pathsum (xi) and genfun (prop1 and closed) load only
#: exactnum and, for genfun, specfun, so no route can share another's code
#: by import.
LAYER_IMPORTS = {
    "hadwalk": ["hadwalk"],
    "hadwalk.exactnum": ["hadwalk", "hadwalk.exactnum"],
    "hadwalk.specfun": ["hadwalk", "hadwalk.specfun"],
    "hadwalk.genfun": ["hadwalk", "hadwalk.exactnum", "hadwalk.genfun", "hadwalk.specfun"],
    "hadwalk.classical": ["hadwalk", "hadwalk.classical", "hadwalk.exactnum", "hadwalk.specfun"],
    "hadwalk.walk": ["hadwalk", "hadwalk.exactnum", "hadwalk.walk"],
    "hadwalk.pathsum": ["hadwalk", "hadwalk.exactnum", "hadwalk.pathsum"],
    "hadwalk.verify": ["hadwalk", *ALL_LAYERS],
    "hadwalk.cli": sorted(["hadwalk", "hadwalk.cli", *ALL_LAYERS]),
}


#: Modules no hadwalk import loads: what dataclasses, typing and inspect
#: would bring, each costing start-up time, and numpy.
UNLOADED_AT_IMPORT = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "numpy")


def run_fresh(script: str, *flags: str) -> str:
    """stdout of `script` run in a fresh interpreter that imports this hadwalk,
    started with the interpreter `flags`."""
    package_root = str(Path(hadwalk.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, *flags, "-c",
         f"import sys; sys.path.insert(0, {package_root!r})\n{script}"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_binds_no_names():
    # every name is imported from its own module; the package re-exports none
    script = """
import hadwalk
print(sorted(n for n in vars(hadwalk) if not (n.startswith("__") and n.endswith("__"))))
"""
    assert run_fresh(script) == "[]\n"


@pytest.mark.parametrize("module", sorted(LAYER_IMPORTS))
def test_layer_imports_alone(module):
    script = f"""
import importlib
importlib.import_module({module!r})
print(sorted(m for m in sys.modules if m.partition(".")[0] == "hadwalk"), "numpy" in sys.modules)
"""
    assert run_fresh(script) == f"{LAYER_IMPORTS[module]} False\n"


@pytest.mark.parametrize("module", sorted(LAYER_IMPORTS))
def test_import_loads_no_costly_stdlib_module(module):
    # -S skips site, whose .pth files may preload typing and so hide a
    # module that imports it; the CLI also builds its parser, as every
    # command does before it runs
    script = f"""
import importlib
importlib.import_module({module!r})
if {module!r} == "hadwalk.cli":
    sys.modules["hadwalk.cli"].build_parser()
print(sorted(m for m in {UNLOADED_AT_IMPORT!r} if m in sys.modules))
"""
    assert run_fresh(script, "-S") == "[]\n"


def test_exact_commands_run_without_numpy():
    # every exact command leaves numpy unloaded; the first float simulate
    # loads it
    script = """
import contextlib, io
from hadwalk.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
for argv in (["verify", "--scope", "fast"], ["simulate", "-n", "9"],
             ["return-prob", "-n", "40", "--method", "all"], ["genfun", "--z", "0.5"],
             ["xi", "--l", "5", "--m", "7"], ["watson"]):
    run(*argv)
print("numpy" in sys.modules)
run("simulate", "-n", "9", "--coin", "custom", "--entries", "0.6,0.8j,0.8j,0.6")
print("numpy" in sys.modules)
"""
    assert run_fresh(script) == "False\nTrue\n"


def test_commands_import_numpy_alone():
    # numpy is the only runtime dependency: running the commands in a fresh
    # interpreter must not load any module the tests bring in
    script = f"""
import contextlib, io, sys
from hadwalk.cli import main
for argv in (["verify", "--scope", "fast"],
             ["simulate", "-n", "9", "--coin", "custom", "--entries", "0.6,0.8j,0.8j,0.6"],
             ["watson"], ["genfun", "--z", "0.5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in {TEST_ONLY_MODULES!r} if m in sys.modules))
"""
    package_root = str(Path(hadwalk.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {package_root!r})\n{script}"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # with warnings as errors, hypothesis's failure report (which imports
    # libcst) must not turn one failed @given test into an INTERNALERROR that
    # stops every later test
    (tmp_path / "test_one_fails.py").write_text('''
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0

def test_passes():
    pass
''')
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_one_fails.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
