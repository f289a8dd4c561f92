"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from pvghi.data import save_plant_csv
from pvghi.synth import PlantSpec, SyntheticSpec, make_timestamps, synthesize
from test_acceptance import standard_fields

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_estimates_every_timestep(tmp_path, site, mesh):
    """75 days at 10 min, so the shortest of the example's splits (73 d) fits."""
    fields = standard_fields(mesh)
    spec = SyntheticSpec(plants=tuple(PlantSpec(pid, fields[pid]) for pid in ("p1", "p2")))
    ts = make_timestamps("2015-05-01T00:00:00", 75, 600)
    synth = synthesize(spec, site, ts, seed=3)
    plant_paths = []
    for plant in synth.dataset.plants:
        plant_paths.append(tmp_path / f"{plant.plant_id}.csv")
        save_plant_csv(plant, plant_paths[-1])

    scope = {"plant_paths": plant_paths}
    exec(library_example(), scope)
    assert scope["ghi"].shape == ts.shape
    assert np.isfinite(scope["ghi"]).all()
