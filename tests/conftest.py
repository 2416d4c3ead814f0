import json
from pathlib import Path

import pytest

from chorcheck.automata import includes
from chorcheck.formats import parse_gt
from chorcheck.gtype import project, sync_product
from chorcheck.trace import Arrow

REPO = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO / "fixtures"
SCHEMA_DIR = REPO / "schemas"

# The reference protocols in fixtures/*.gt, by type name.
FIXTURE_NAMES = ("g_sd", "g0", "branch", "real", "nonreal", "deadlock", "cross", "single")

# (a1, a2, a2', a3, a4) of g_sd, whose language is {a2, a1·a3}.  The arrow a3
# commutes with a1 but not with a2 or a2' (they share the receiver q'): the
# one commutation pattern consistent with all the documented renunciation
# behaviours of this type.
GSD_ARROWS = (Arrow("p", "q", "m1"), Arrow("p", "q'", "m2"),
              Arrow("p", "q'", "m2'"), Arrow("r", "q'", "m3"),
              Arrow("q", "q'", "m4"))

# Three sends on one channel: at channel bound 1 or 2 the last send finds
# the channel full well within an event budget of 8.
THREE_SENDS = """gtype three {
  processes: p, q;
  messages: a;
  states: s0*, s1, s2, s3+;
  s0 -- p->q:a --> s1;
  s1 -- p->q:a --> s2;
  s2 -- p->q:a --> s3;
}
"""


def load_fixture(name: str):
    return parse_gt((FIXTURE_DIR / f"{name}.gt").read_text())


def all_fixtures() -> dict:
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


def lower_inclusion(g) -> bool:
    """L(g) ⊆ L(product(projection)): holds by construction of the projection."""
    return includes(sync_product(project(g)).automaton, g.automaton)[0]


@pytest.fixture
def g_sd():
    return load_fixture("g_sd")


@pytest.fixture
def g0():
    return load_fixture("g0")


@pytest.fixture
def branch():
    return load_fixture("branch")


@pytest.fixture
def real():
    return load_fixture("real")


@pytest.fixture
def nonreal():
    return load_fixture("nonreal")


@pytest.fixture
def deadlock():
    return load_fixture("deadlock")


@pytest.fixture
def cross():
    return load_fixture("cross")


@pytest.fixture
def single():
    return load_fixture("single")


@pytest.fixture
def fixture_suite():
    return all_fixtures()


@pytest.fixture
def gsd_arrows():
    return GSD_ARROWS


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.json").read_text())
