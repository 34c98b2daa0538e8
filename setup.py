"""Setuptools metadata for the reproduction package.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so that
``pip install -e . --no-use-pep517`` works in offline environments that lack
the ``wheel`` package required by PEP 517 editable installs.  Installing
exposes the ``repro`` console script (the same CLI as ``python -m repro``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-multimedia-networks",
    version="1.0.0",
    description="Reproduction of Afek, Landau, Schieber, Yung (PODC 1988): "
    "the power of multimedia networks",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # what the test suites import beyond the package (six tier-1 modules
    # use hypothesis); CI installs it with `pip install ".[test]"`
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
