import random
from pathlib import Path

import pytest

import geoq
from geoq import io as gio
from geoq.constructions import affine_geometry, example_generators, ssg
from geoq.cosets import FiniteGroup, coseteg_family


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def bundled_geometries():
    """Every bundled .geo file and catalogue geometry, then three whose
    masks are wider than a machine word: 16 pregeometries."""
    data = Path(geoq.__file__).parent / "data"
    out = [gio.parse_geometry(path.read_text())
           for path in sorted(data.glob("*.geo"))]
    for make in example_generators().values():
        made = make()
        out.append(made[0] if isinstance(made, tuple) else made)
    return out + [ssg(5, 3), coseteg_family(FiniteGroup.cyclic(5)).geometry,
                  affine_geometry(3, 3)[0]]
