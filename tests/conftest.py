import numpy as np
import pytest
from hypothesis import settings

from pvghi import (
    OmegaCoefficients,
    ProxyParams,
    Site,
    estimate_nominal_power,
    generate_mesh,
)
from pvghi.synth import make_timestamps

# Property tests draw the same examples on every run and keep none on disk.
settings.register_profile("pvghi", derandomize=True, database=None, deadline=None)
settings.load_profile("pvghi")


@pytest.fixture(scope="session")
def site():
    return Site(latitude=47.5, longitude=7.5, altitude=300.0)


@pytest.fixture(scope="session")
def params():
    return ProxyParams()


@pytest.fixture(scope="session")
def mesh():
    return generate_mesh(2)


def mesh_vertex(mesh, tilt_deg, azimuth_deg, tol_deg=1.0):
    """Exact mesh orientation closest to the requested angles."""
    best, best_d = None, np.inf
    for o in mesh.orientations:
        d = abs(np.rad2deg(o.tilt) - tilt_deg) + abs(
            (np.rad2deg(o.azimuth) - azimuth_deg + 180) % 360 - 180
        )
        if d < best_d:
            best, best_d = o, d
    assert best_d < 25, "no mesh vertex near the requested orientation"
    return best


def true_omega(mesh, fields, plant_id, params=ProxyParams()):
    """Coefficient vector that reproduces the synthetic generator exactly."""
    om = np.zeros(len(mesh.orientations))
    for orientation, pnom in fields:
        om[mesh.orientations.index(orientation)] = pnom / (params.k2 * params.i_stc)
    return OmegaCoefficients(plant_id, om, estimate_nominal_power(om, params))


@pytest.fixture(scope="session")
def week_timestamps():
    return make_timestamps("2015-06-01T00:00:00", 7, 600)
