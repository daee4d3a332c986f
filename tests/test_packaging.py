"""Package metadata and layout, as ``setup.py`` declares them."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _setup(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), *args],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout


def test_metadata_names_repro_and_its_version():
    assert _setup("--name", "--version").split() == ["repro", repro.__version__]


def test_build_copies_every_package(tmp_path):
    _setup("build", "--build-base", str(tmp_path))
    built = tmp_path / "lib"
    packages = {p.parent.relative_to(SRC) for p in SRC.rglob("__init__.py")}
    copied = {p.parent.relative_to(built) for p in built.rglob("__init__.py")}
    assert copied == packages
    modules = {p.relative_to(SRC) for p in SRC.glob("repro/**/*.py")}
    assert {p.relative_to(built) for p in built.glob("repro/**/*.py")} == modules
