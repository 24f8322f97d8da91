"""The benchmark's tracer binds cnfaug functions by name; a deleted or
renamed binding would otherwise break only traced benchmark runs."""

import subprocess
import sys
from pathlib import Path

import cnfaug

BENCH = Path(__file__).resolve().parent.parent / "cnfbench"


def test_tracer_installs_on_the_package_under_test(tmp_path):
    package_root = str(Path(cnfaug.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {package_root!r}]\n"
        "import cnfaug\n"
        f"assert cnfaug.__file__.startswith({package_root!r}), cnfaug.__file__\n"
        "from tracing import Tracer, install\n"
        "install(Tracer())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), timeout=60
    )
    assert result.returncode == 0, result.stderr
