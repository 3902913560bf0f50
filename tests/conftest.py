import pytest

from qgalois import presets
from qgalois.scalars import QRat, q_power


@pytest.fixture(scope="session")
def suq2():
    return presets.suq2()


@pytest.fixture(scope="session")
def u1():
    return presets.u1()


@pytest.fixture(scope="session")
def fibration():
    return presets.fibration_coaction()


@pytest.fixture(scope="session")
def regular_suq2():
    return presets.regular_suq2_coaction()


@pytest.fixture(scope="session")
def regular_u1():
    return presets.regular_u1_coaction()


@pytest.fixture(scope="session")
def fundamental():
    return presets.fundamental_corep()


@pytest.fixture(scope="session")
def collapse():
    return presets.collapse_morphism()


@pytest.fixture(scope="session")
def intertwiner_q():
    """The scalar matrix conjugating the fundamental corepresentation to its
    contragredient."""
    return [[QRat(0), -q_power(1)], [QRat(1), QRat(0)]]
