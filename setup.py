"""Packaging for the C-ARQ reproduction.

Metadata lives here (not in a ``pyproject.toml``) because the evaluation
environment has setuptools 65 without the ``wheel`` package, so PEP 660
editable installs cannot build the editable wheel; ``python setup.py
develop`` (which pip falls back to) works offline with this classic
layout.
"""

from setuptools import find_packages, setup

setup(
    name="repro-carq",
    version="1.0.0",
    description=(
        "Reproduction of 'A Cooperative ARQ for Delay-Tolerant Vehicular "
        "Networks' (Morillo-Pozo et al., ICDCS Workshops 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
