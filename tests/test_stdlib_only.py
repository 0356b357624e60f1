"""The runtime needs nothing beyond the standard library."""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import SRC

# prints every module that importing the package and its CLI loads
PROBE = (
    "import sys; before = set(sys.modules); import vnm, vnm.cli; "
    "print(*sorted(set(sys.modules) - before))"
)


def test_import_loads_only_stdlib_modules():
    # -S skips site: no site-packages on the path, and no .pth hooks that
    # import third-party modules of their own
    run = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    loaded = {name.partition(".")[0] for name in run.stdout.split()}
    assert "vnm" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"vnm"} == set()
