import pytest


@pytest.fixture
def exp_map_batches(monkeypatch):
    """Batch shapes of the x0 jets of every exp_map call made by the
    exponential-family builder (geodesic spheres and normal deformations)."""
    from secondform import variation

    batches = []
    original = variation.exp_map

    def counting(chart, x0_jets, *args, **kwargs):
        batches.append(x0_jets[0].batch_shape)
        return original(chart, x0_jets, *args, **kwargs)

    monkeypatch.setattr(variation, "exp_map", counting)
    return batches
