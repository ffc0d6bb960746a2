import os

import pytest
from hypothesis import settings

from anick import Alphabet, ResolutionContext, complete, parse_presentation

XYZ_TEXT = "vars: x > y > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
XYZ_ALT_TEXT = "vars: y > x > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
YXSQ_LOW_TEXT = "vars: x < y\nrelations:\n  x^2 - y*x\n"
YXSQ_HIGH_TEXT = "vars: x > y\nrelations:\n  x^2 - y*x\n"
G4_TEXT = (
    "vars: a > b > c > d\nrelations:\n  a*b - b*a + c*d\n  a*c - 2*d*b\n"
    "  b*d + a^2 - c^2\n  d*a - b*c\n"
)

# The 111 leading words of complete(g4, 8) for the generic four-generator
# algebra of test_groebner.py under a > b > c > d, which take seconds to
# recompute: a large obstruction antichain, valid through degree 8.
G4_D8_OBSTRUCTIONS = (
    "bc ac ab aa bbd bad adb ada bdbb bdba addb adda adcd adcc bdcdb bdccb bdcca "
    "bdbdd bdbdc bdbdb bdbda bdadc adddb addda addcd addcc bddadd bdcddc bdcddb "
    "bdcdda bdcdcd bdcdcc bdcdad bdccdb bdccda bdcccd bdcccc bdcccb bdccca addddb "
    "adddda adddcd adddcc bddbddb bddbdda bddbdcd bddbdcc bddbdcb bddbdca bddbdbd "
    "bddbdad bddadcb bddadca bdcdddb bdcddda bdcdcbd bdcdcbb bdcdcba bdcdcad "
    "bdccddb bdccdda bdccdcd bdccdcc adddddb addddda addddcd addddcc bddccdcd "
    "bddccdbd bddccdbb bddccdba bddccdad bddcccdd bddcccdc bddcccdb bddcccda "
    "bddccccd bddccccc bddccccb bddcccca bddcccbd bddcccbb bddcccba bddcccad "
    "bddccbdd bddccbdc bddccbdb bddccbda bddccbbb bddccbba bddccadc bddbdddd "
    "bddbdddc bddbdddb bddbddda bddbddcd bddbddcc bddbddcb bddbddca bdcddddb "
    "bdcdddda bdcdddcd bdcdddcc bdccdddb bdccddda bdccddcd bdccddcc addddddb "
    "adddddda adddddcd adddddcc"
)

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


@pytest.fixture(scope="session")
def g4():
    """The generic four-generator quadratic algebra of test_groebner.py."""
    return parse_presentation(G4_TEXT)


@pytest.fixture(scope="session")
def g4_d8_obstructions():
    alphabet = Alphabet(("a", "b", "c", "d"))
    return alphabet, [alphabet.word(w) for w in G4_D8_OBSTRUCTIONS.split()]
