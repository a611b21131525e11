import subprocess
import sys
from pathlib import Path

import hadwalk

#: Modules the tests use as oracles or runners; none is a runtime dependency.
TEST_ONLY_MODULES = ("scipy", "mpmath", "sympy", "hypothesis", "pytest")


def test_all_names_resolve_once():
    # a deleted name left in __all__ would otherwise fail only `import *`
    assert len(set(hadwalk.__all__)) == len(hadwalk.__all__)
    assert [name for name in hadwalk.__all__ if not hasattr(hadwalk, name)] == []


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
