"""Setup shim.

The modern editable-install path (PEP 517 / 660) requires the ``wheel``
package, which is not available in fully offline environments.  This shim
keeps ``pip install -e . --no-use-pep517 --no-build-isolation`` working with
nothing but setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Deterministic fault-tolerant state preparation for near-term QEC: "
        "automatic synthesis using Boolean satisfiability (DATE 2025 "
        "reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
    extras_require={
        # zstandard upgrades store payloads and cluster wire frames from
        # zlib to zstd. Everything degrades gracefully without it.
        "fast": ["zstandard"],
    },
)
