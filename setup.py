from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "CSnake reproduction: detecting self-sustaining cascading failures "
        "via causal stitching of fault propagations"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    # scipy: the oracle the in-house Welch-test and average-linkage kernels
    # are compared with (tests skip without it); nothing under src imports it.
    extras_require={"test": ["pytest", "hypothesis", "scipy"]},
)
