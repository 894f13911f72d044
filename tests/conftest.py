"""Fixtures that build the compiled census kernel from source."""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from chorddiag import _census_py

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def built_census(tmp_path_factory):
    """The compiled kernel, built into a temporary directory; None without a C compiler.

    With a compiler present, a build that produces no extension fails the test.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        return None
    out = tmp_path_factory.mktemp("census_build")
    build = subprocess.run(
        [
            sys.executable, "setup.py", "build_ext",
            "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    built = sorted((out / "lib" / "chorddiag").glob("_census.*"))
    if build.returncode != 0 or not built:
        pytest.fail(f"building the census kernel failed:\n{build.stdout}\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("chorddiag._census", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_census(built_census):
    """The compiled kernel; skips when no C compiler is found."""
    if built_census is None:
        pytest.skip("no C compiler to build the census kernel")
    return built_census


@pytest.fixture
def census_kernels(built_census):
    """The pure-Python kernel, and the compiled one wherever it can be built."""
    return [_census_py] + ([built_census] if built_census is not None else [])
