import pathlib

import pytest

from synchrokit import load_dfa

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Hand-built automata exercising each branch of the corank-3 construction.
# The X_EQ_2 certificate shapes need three or more letters, so they cannot
# occur in the two-letter exhaustive sweeps and are pinned here instead.
CASE_FIXTURES = {
    "CASE_I_qb_ne_3": "4 2\n2 3 4 1\n2 2 4 3\n",
    "CASE_I_qb_3": "4 2\n2 3 4 1\n2 2 3 4\n",
    "CASE_II": "4 3\nnames: a d b\n2 1 3 4\n1 4 2 3\n2 2 3 4\n",
    "CASE_III_3b_ne_4": "4 3\nnames: a d b\n2 1 4 3\n1 3 2 4\n2 2 3 4\n",
    "CASE_III_3b_4": "4 3\nnames: a d b\n2 1 4 3\n1 3 2 4\n2 2 4 3\n",
    "CASE_IV_X2": "5 4\nnames: a d s b\n2 1 3 4 5\n1 3 2 4 5\n1 2 4 3 5\n2 2 3 4 5\n",
    "CASE_IV_X3": "4 2\n1 1 4 3\n3 1 2 4\n",
}

# Forces the a-replacement step: the minimal word's third letter maps an
# outside state onto 1, so it takes over the a role.
A_REPLACED_FIXTURE = "4 3\nnames: a d b\n2 1 3 4\n2 3 1 4\n2 2 3 4\n"

# A hit of the corank-4 hunt: its shortest words from the full set reach
# sizes 5, 4, 3, 2, 1 in 1, 4, 9, 17 and 25 letters, so Pin's c^2 bound
# fails at c = 4 (17 > 16) while c <= 3 hold.  Kept out of fixtures/, whose
# files every CLI verb replays.
CORANK4_HIT = "6 2\n3 2 1 1 5 6\n2 5 6 3 1 4\n"


def fixture_path(name):
    return str(FIXTURES / name)


def load_fixture(name):
    return load_dfa((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def c3():
    return load_fixture("c3.dfa")


@pytest.fixture(scope="session")
def c4():
    return load_fixture("c4.dfa")


@pytest.fixture(scope="session")
def c5():
    return load_fixture("c5.dfa")


@pytest.fixture(scope="session")
def e5():
    return load_fixture("e5.dfa")


@pytest.fixture(scope="session")
def i3():
    return load_fixture("i3.dfa")
