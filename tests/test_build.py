"""The compiled kernel's build, on a copy of the package without one: the
first import builds it without a word on stdout or stderr, a second
import takes that build as it is, and an edit of _kernel.c builds anew."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import sliarith


def test_kernel_builds_once_per_source(tmp_path):
    package = tmp_path / "sliarith"
    shutil.copytree(Path(sliarith.__file__).parent, package,
                    ignore=shutil.ignore_patterns("_kernel_*", "__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}

    def import_package() -> dict[str, int]:
        proc = subprocess.run([sys.executable, "-W", "error", "-c", "import sliarith"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        return {p.name: p.stat().st_mtime_ns for p in package.glob("_kernel_*")}

    assert not list(package.glob("_kernel_*"))
    built = import_package()
    assert len(built) == 1  # the build alone, no temporary directory left
    assert import_package() == built
    source = package / "_kernel.c"
    source.write_text(source.read_text() + "/* edited */\n")
    rebuilt = import_package()
    assert len(rebuilt) == 1 and rebuilt.keys() != built.keys()
