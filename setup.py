"""Setup entry point and package metadata.

``pip install -e .`` works in environments without the ``wheel`` package (pip
falls back to the ``setup.py develop`` editable-install path).  The long
description is sourced from ``README.md`` so the published metadata documents
the engine architecture alongside the install and test commands.
"""

from pathlib import Path

from setuptools import find_packages, setup

_README = Path(__file__).resolve().parent / "README.md"

setup(
    name="repro-qla-arq",
    version="1.10.0",
    description=(
        "Reproduction of the QLA quantum architecture study: ion-trap model, "
        "ARQ stabilizer simulator with a fused bit-packed Monte-Carlo engine "
        "behind a pluggable backend registry, the paper's threshold/resource "
        "experiments driven by declarative JSON specs, a design-space "
        "explorer with a content-addressed result cache, and an HTTP "
        "experiment service over a durable job queue"
    ),
    long_description=_README.read_text() if _README.exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # networkx routes the interconnect mesh (repro.network) and sorts
    # circuit DAGs (repro.circuits.dag); `import repro` needs it.
    install_requires=["numpy", "networkx"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
        # The experiment service (repro.service / repro-serve) is pure
        # stdlib -- http.server + sqlite3 -- so the extra is empty on
        # purpose: `pip install repro-qla-arq[service]` documents intent
        # without pulling a single new dependency.
        "service": [],
    },
    entry_points={
        "console_scripts": [
            # Run a JSON ExperimentSpec file: `repro-run spec.json`.
            "repro-run=repro.api.cli:main",
            # Serve the pipeline over HTTP: `repro-serve --port 8642`.
            "repro-serve=repro.service.cli:main",
        ],
    },
)
