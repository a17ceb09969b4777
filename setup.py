"""Setuptools packaging for the ``repro`` package.

This file holds the project metadata.  It installs the package, or an
editable copy of it, on machines whose packaging toolchain predates
PEP 660 editable wheels (e.g. offline environments without the
``wheel`` package):

    pip install -e . --no-use-pep517
    # or
    python setup.py develop
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Warp processing for FPGA soft processor cores: a reproduction of "
        "Lysecky & Vahid, DATE 2005 — with a networked warp service "
        "(WARPNET gateway, worker pool, persistent CAD artifact store)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-warp=repro.service.cli:main",
        ],
    },
)
