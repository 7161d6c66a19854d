"""Setuptools packaging for the repro library.

The project deliberately ships a plain ``setup.py`` (no ``pyproject.toml``)
so that editable installs keep working in offline environments that lack the
``wheel``/PEP 660 build machinery; all metadata therefore lives here.
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).parent

LONG_DESCRIPTION = (HERE / "README.md").read_text(encoding="utf-8")

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-sdr-bist",
    version=VERSION,
    description=(
        'Reproduction of "A flexible BIST strategy for SDR transmitters" '
        "(DATE 2014): nonuniform bandpass sampling, LMS time-skew calibration "
        "and parallel multistandard BIST campaigns"
    ),
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22", "scipy>=1.8"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "pytest-cov", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Hardware",
    ],
)
