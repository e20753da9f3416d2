"""Start-up cost: the CLI loads scipy only when a command needs it.

``scipy.signal`` (which loads ``scipy.stats``) and ``scipy.linalg`` take
about a second to import, several times what numpy and the package
itself take. Each check runs in a fresh interpreter, so a module-level
import added anywhere in the package fails here instead of silently
slowing every ``spdbci`` process.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = ("scipy.signal", "scipy.stats", "scipy.linalg")


def heavy_modules_after(code, cwd):
    """The modules of ``HEAVY`` loaded once ``code`` has run in a fresh
    isolated interpreter with this checkout's ``src`` on the path."""
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        code,
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))",
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy_module(tmp_path):
    assert heavy_modules_after("import spdbci.cli", tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["gen", "--out", "data", "--trials-per-class", "1"],
], ids=["help", "gen"])
def test_commands_without_filtering_load_no_scipy_module(tmp_path, argv):
    code = "\n".join([
        "from spdbci.cli import main",
        "try:",
        f"    main({argv!r})",
        "except SystemExit:",
        "    pass",
    ])
    assert heavy_modules_after(code, tmp_path) == []


def test_filtering_loads_scipy_signal(tmp_path):
    # the counterpart: the lazy imports still happen where they are needed
    code = "\n".join([
        "from spdbci.preprocessing import BandpassFilterBank",
        "BandpassFilterBank((13.0,), 2, 256.0)",
    ])
    assert "scipy.signal" in heavy_modules_after(code, tmp_path)


def test_console_script_target_resolves(capsys):
    # the `spdbci` command that an install creates calls this target
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, attr = project["project"]["scripts"]["spdbci"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert "usage: spdbci" in capsys.readouterr().out
