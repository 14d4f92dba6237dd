from pathlib import Path

import pytest

from rayleighmt import default_window, find_rayleigh, load_material

MATERIALS = Path(__file__).resolve().parent.parent / "materials"


@pytest.fixture(scope="session")
def reference():
    return load_material(MATERIALS / "reference.json")


@pytest.fixture(scope="session")
def case_i_material():
    return load_material(MATERIALS / "case_i.json")


@pytest.fixture(scope="session")
def case_ii_material():
    return load_material(MATERIALS / "case_ii.json")


@pytest.fixture(scope="session")
def case_iii_material():
    return load_material(MATERIALS / "case_iii.json")


@pytest.fixture(scope="session")
def solved_reference(reference):
    """The converged surface-wave root of the reference material."""
    roots = find_rayleigh(reference, default_window(reference))
    converged = [r for r in roots if r.classification == "converged"]
    assert converged, "reference material must yield a converged root"
    return converged[0]
