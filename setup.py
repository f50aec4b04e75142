"""Setuptools packaging for the ``repro`` library (``src/`` layout).

The project has no pyproject.toml; this file is the whole packaging
configuration. It keeps `pip install -e .` working on minimal offline
environments whose setuptools lacks PEP 660 editable-wheel support (no
`wheel` package available). The C sources of the replay and recording
kernels ship as package data: `repro.native` compiles each on first use.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.hwsim": ["lru_walk.c"], "repro.rt": ["round_walk.c"]},
    install_requires=["numpy"],
)
