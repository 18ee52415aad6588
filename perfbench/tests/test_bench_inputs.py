"""Seeded inputs regenerate identically, and the seed moves values, not sizes."""

import json

import numpy as np
import pytest

import inputs


DRAW = {"grid": inputs.grid_scenarios, "sphere": inputs.sphere_inputs,
        "curvature": inputs.curvature_inputs}


def _dump(value):
    return json.dumps(value, sort_keys=True,
                      default=lambda a: a.tolist() if isinstance(a, np.ndarray) else str(a))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _dump(DRAW[workload](7)) == _dump(DRAW[workload](7))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_other_values(workload):
    assert _dump(DRAW[workload](7)) != _dump(DRAW[workload](8))


def _shape(value):
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_shape(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.shape
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return value


def test_grid_sizes_do_not_depend_on_the_seed():
    a, b = inputs.grid_scenarios(1), inputs.grid_scenarios(2)
    assert [n for n, _, _ in a] == [n for n, _, _ in b]
    for (_, sa, ea), (_, sb, eb) in zip(a, b):
        assert ea == eb
        assert sa["subject"].get("grid") == sb["subject"].get("grid")
        assert _shape(sa) == _shape(sb)


def test_probes_do_not_depend_on_the_seed():
    probes = lambda seed: [s for s in inputs.grid_scenarios(seed) if s[2] == 2]  # noqa: E731
    assert _dump(probes(1)) == _dump(probes(99))
    assert len(probes(1)) == 4


@pytest.mark.parametrize("workload", ["sphere", "curvature"])
def test_point_inputs_keep_their_shapes(workload):
    assert _shape(DRAW[workload](1)) == _shape(DRAW[workload](2))
