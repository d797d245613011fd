"""Setuptools metadata for the ``repro`` package.

``pip install -e .`` (or ``pip install .``) installs the package from
``src/``; the only runtime dependency is numpy.  networkx and scipy are
optional (network games, sparse incidence) and numba is optional (the
native engine's JIT path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Concurrent imitation dynamics in congestion games",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
