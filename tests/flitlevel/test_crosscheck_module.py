"""The crosscheck harness is a module of its own, not a package attribute.

The package namespace must not re-export the ``crosscheck`` function:
it would shadow the submodule of the same name, so ``import
repro.net.flitlevel.crosscheck as cc`` would bind the function, and
``python -m repro.net.flitlevel.crosscheck`` would run a module that the
package import had already loaded (runpy warns about that on stderr).
"""

import os
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_binds_the_module():
    import repro.net.flitlevel.crosscheck as cc

    assert isinstance(cc, types.ModuleType)
    assert callable(cc.main) and callable(cc.crosscheck)


def test_cli_writes_no_runtime_warning():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.net.flitlevel.crosscheck", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "--engines" in proc.stdout
