"""Package metadata for ``repro``: ``pip install .`` from the repo root.

There is no ``pyproject.toml``; this file is the whole build
configuration.  The native plane kernel ships as C source
(``repro/backends/_kernel/kernel.c``) and is compiled on first use, so
an installed package needs that file as package data -- without it the
``native`` backend silently falls back to ``bigint``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # equal to repro.__version__
    description="Optimal metastability-containing sorting networks "
    "(DATE 2018 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.backends._kernel": ["kernel.c"]},
    python_requires=">=3.9",
)
