"""Packaging for the TanG04 reproduction.

Pure standard-library package (no runtime dependencies), src/ layout.
``pip install -e .`` puts a ``repro`` executable on the path, so the
CLI works without ``PYTHONPATH=src``::

    repro fig9
    repro scenario run churn
    repro campaign --jobs 8
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).parent
README = HERE / "README.md"
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-tang04",
    version=VERSION,
    description=(
        "Reproduction of Tan & Guttag, 'Time-based Fairness Improves "
        "Performance in Multi-rate WLANs' (USENIX ATC 2004): "
        "deterministic 802.11 simulator, TBR scheduler, experiment/"
        "campaign/scenario/campus/serve subsystems"
    ),
    long_description=README.read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: System :: Networking",
        "Topic :: Scientific/Engineering",
    ],
)
