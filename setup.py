"""Legacy setup shim (the offline environment lacks the wheel package).

Install with ``pip install -e .``; the package is pure Python and needs
nothing beyond the standard library.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_init = Path(__file__).parent / "src" / "repro" / "__init__.py"
version = re.search(r'__version__ = "([^"]+)"', _init.read_text()).group(1)

setup(
    name="repro",
    version=version,
    description="Early-FTQC lattice-surgery compiler reproduction",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
