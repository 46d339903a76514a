import pytest

from fricke_orbits.fricke_action import Omega
from fricke_orbits.golden import GOLDEN_ROWS
from fricke_orbits.orbit_search import close_orbit, full_search


@pytest.fixture(scope="session")
def search_result():
    """One full scan shared by every test that needs the 45 orbits."""
    return full_search(threads=1)


@pytest.fixture(scope="session")
def golden_records():
    """The 45 reference orbits, each closed exactly from its row's
    representative point."""
    out = []
    for row in GOLDEN_ROWS:
        rec = close_orbit(row.rep_point, Omega(*row.omega, row.omega4))
        assert rec.size == row.size, row.idx
        out.append(rec)
    return out


@pytest.fixture(scope="session")
def golden_orbits(golden_records):
    """The 45 reference orbits as (points, omega)."""
    return [(rec.points, rec.omega) for rec in golden_records]
