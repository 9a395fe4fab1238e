"""The package's import paths: every name is imported from its module, and the
package top level exports nothing."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qutritchain import sweeps

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["cli", "densecode", "entanglement", "numkernel", "qstate", "spinmodels", "sweeps",
           "thermal"]

# a bare import of the package loads none of its modules, and so no numpy
BARE_IMPORT = ("import sys, qutritchain; "
               "assert not [m for m in sys.modules if m.startswith('qutritchain.')]; "
               "assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("code", [f"import qutritchain.{m}" for m in MODULES] + [BARE_IMPORT],
                         ids=[*MODULES, "bare"])
def test_each_module_imports_alone(code):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0 and r.stderr == "", r.stderr


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    expected = sweeps._sweep_worker((-1.0, -1.7, 1.3, -1.3, 1.0), ("negativity",))[0]
    assert float(out.getvalue()) == expected
