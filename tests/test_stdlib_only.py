"""The runtime stays on the standard library."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Print the top-level modules that importing the package loads, one a line.
PROBE = """
import sys
before = set(sys.modules)
import cascade.cli, cascade.leading, cascade.partitions
print("\\n".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_runtime_loads_only_standard_library_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "cascade" in loaded
    assert loaded - {"cascade"} <= sys.stdlib_module_names
