import pytest


@pytest.fixture
def exp_map_batches(monkeypatch):
    """Batch shapes of the x0 coefficient arrays of every exp_map call made
    by the geodesic-sphere builder."""
    from secondform import spheres

    batches = []
    original = spheres.exp_map

    def counting(chart, space, x0_jets, *args, **kwargs):
        batches.append(x0_jets.shape[2:])
        return original(chart, space, x0_jets, *args, **kwargs)

    monkeypatch.setattr(spheres, "exp_map", counting)
    return batches
