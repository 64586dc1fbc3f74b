"""The runtime is stdlib-only, as ``pyproject.toml`` declares.

Every module of the ``repro`` package must import in an interpreter that
can see nothing but the standard library.  The check runs in a
subprocess, so packages this test process already imported cannot mask
a missing one.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = r"""
import importlib
import pkgutil
import sys


class StdlibOnly:
    # Refuses every top-level package outside the standard library (and
    # repro itself), as an interpreter with nothing installed would.
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "repro" and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, StdlibOnly())

import repro

failed = []
walked = []
for info in pkgutil.walk_packages(
    repro.__path__, "repro.", onerror=lambda name: failed.append(name)
):
    if info.name.rpartition(".")[2] == "__main__":
        continue
    walked.append(info.name)
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failed.append(f"{info.name}: {exc!r}")
for name in walked:
    print("OK", name)
for line in failed:
    print("FAIL", line)
"""


def _expected_modules():
    """Every non-``__main__`` module under the package, from the files."""
    root = Path(repro.__file__).parent
    names = set()
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
            if not parts:
                continue  # ``repro`` itself is imported before the walk
        names.add(".".join(("repro",) + parts))
    return names


def test_runtime_imports_stdlib_only():
    src = str(Path(repro.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert not failed, "\n".join(failed)
    walked = {line.split()[1] for line in lines if line.startswith("OK")}
    assert walked == _expected_modules()
