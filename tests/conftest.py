import os

import pytest
from hypothesis import settings

from anick import ResolutionContext, complete, parse_presentation

XYZ_TEXT = "vars: x > y > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
XYZ_ALT_TEXT = "vars: y > x > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
YXSQ_LOW_TEXT = "vars: x < y\nrelations:\n  x^2 - y*x\n"
YXSQ_HIGH_TEXT = "vars: x > y\nrelations:\n  x^2 - y*x\n"

# Properties that leave their example count to the profile run 4x as many
# examples under HYPOTHESIS_PROFILE=ci; an explicit max_examples wins.
settings.register_profile("ci", max_examples=4 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def xyz():
    """Three generators, three quadratic relations; Koszul of dimension 4."""
    return parse_presentation(XYZ_TEXT)


@pytest.fixture(scope="session")
def xyz_gb8(xyz):
    return complete(xyz, 8)


@pytest.fixture(scope="session")
def xyz_ctx(xyz_gb8):
    return ResolutionContext(xyz_gb8, level_max=8, deg_max=8)


@pytest.fixture(scope="session")
def yxsq_low():
    """Two generators, x^2 = yx, ordering that gives a quadratic basis."""
    return parse_presentation(YXSQ_LOW_TEXT)


@pytest.fixture(scope="session")
def yxsq_high():
    """Same algebra with the opposite ordering; the basis is infinite."""
    return parse_presentation(YXSQ_HIGH_TEXT)
