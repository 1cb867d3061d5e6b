"""Shared bases, digit maps and preset rows used across the test modules."""

import dataclasses

import pytest

from cantorlab import CantorBase, DigitMap, build_base
from cantorlab.experiments import preset, run_experiment


@pytest.fixture(scope="session")
def base2() -> CantorBase:
    return build_base({"kind": "constant", "q": 2})


@pytest.fixture(scope="session")
def base3() -> CantorBase:
    return build_base({"kind": "constant", "q": 3})


@pytest.fixture(scope="session")
def base10() -> CantorBase:
    return build_base({"kind": "constant", "q": 10})


@pytest.fixture(scope="session")
def base23() -> CantorBase:
    """Alternating digit sizes 2, 3, 2, 3, ..."""
    return build_base({"kind": "periodic", "pattern": [2, 3]})


@pytest.fixture(scope="session")
def factorial_base() -> CantorBase:
    """a_j = j + 2, so the level-j weight is (j + 1)!."""
    return build_base({"kind": "affine", "c": 1, "d": 2})


@pytest.fixture(scope="session")
def vdc2() -> DigitMap:
    return DigitMap.radical_inverse()


@pytest.fixture(scope="session")
def geo_half() -> DigitMap:
    return DigitMap.geometric(0.5, (0.0, 1.0))


@pytest.fixture(scope="session")
def poly15() -> DigitMap:
    return DigitMap.polynomial(1.5, (0.0, 1.0))


@pytest.fixture(scope="session")
def tern() -> DigitMap:
    return DigitMap.symmetric_ternary()


@pytest.fixture(scope="session")
def skew() -> DigitMap:
    return DigitMap.skewed_polyweight()


@pytest.fixture(scope="session")
def preset_rows():
    """run_experiment rows of a preset by name; each preset runs once per
    session (without its CF trace file), however many tests read it."""
    cache = {}

    def rows(name: str) -> list[dict]:
        if name not in cache:
            cache[name] = run_experiment(dataclasses.replace(preset(name), trace_out=None))
        return cache[name]

    return rows
