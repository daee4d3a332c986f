"""Package metadata, declared here and nowhere else.

The version is read from ``src/repro/_version.py`` without importing the
package.  Check it with ``python setup.py --name --version``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Timestamp snooping: an approach for extending SMPs (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
)
