"""Span self-time arithmetic, call counting and installation of the wrappers."""

import numpy as np
import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_direct_children():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    t.enter("op", "bench")            # 0
    clock.now = 1.0
    t.enter("cj", "ambient", "cj")     # 1
    clock.now = 2.0
    t.enter("inv", "jets", "inv")      # 2
    clock.now = 2.5
    t.exit()                           # inv 0.5
    clock.now = 4.0
    t.exit()                           # cj 3.0, self 2.5
    clock.now = 4.25
    t.enter("area", "variation")
    clock.now = 5.0
    t.exit()                           # area 0.75
    clock.now = 6.0
    t.exit()                           # op 6.0, self 6 - 3 - 0.75
    stats = t.take()
    assert stats["self_s"] == pytest.approx(
        {"bench": 2.25, "ambient": 2.5, "jets": 0.5, "variation": 0.75})
    assert stats["root_s"] == pytest.approx(6.0)
    assert sum(stats["self_s"].values()) == pytest.approx(stats["root_s"])
    assert stats["name_s"]["cj"] == pytest.approx(3.0)
    assert t.take()["root_s"] == 0.0  # take() starts afresh


def test_nested_calls_of_one_counter_count_once():
    t = tracing.Tracer(clock=FakeClock())
    t.enter("jinv", "jets", "jets.inv")
    t.enter("jdet", "jets", "jets.inv")
    t.enter("jdet", "jets", "jets.inv")
    for _ in range(3):
        t.exit()
    t.enter("jdet", "jets", "jets.inv")
    t.exit()
    assert t.take()["calls"] == {"jets.inv": 2}


@pytest.fixture
def installed():
    from secondform import ambient, hypersurface, iigeom, jets, spheres, variation

    originals = {
        "exp_map": ambient.exp_map, "ii_geometry": iigeom.ii_geometry,
        "jinv": jets.jinv, "jdet": jets.jdet, "mul": jets.Jet.__dict__["__mul__"],
    }
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    yield tracer, originals
    uninstall()
    assert tracing.bindings() == []
    assert ambient.exp_map is originals["exp_map"]
    assert spheres.exp_map is originals["exp_map"]
    assert variation.ii_geometry is originals["ii_geometry"]
    assert hypersurface.jinv is originals["jinv"]
    assert jets.Jet.__dict__["__mul__"] is originals["mul"]


def test_install_wraps_every_importing_namespace(installed):
    bound = set(tracing.bindings())
    for module in ("ambient", "spheres", "variation"):
        assert (f"secondform.{module}", "exp_map") in bound
    for module in ("iigeom", "spheres", "variation"):
        assert (f"secondform.{module}", "ii_geometry") in bound
    for module in ("jets", "ambient", "hypersurface", "iigeom"):
        assert (f"secondform.{module}", "jinv") in bound
    for module in ("jets", "hypersurface", "iigeom"):
        assert (f"secondform.{module}", "jdet") in bound
    assert ("secondform", "curvature_jet") in bound


def test_traced_call_counts_and_sums(installed):
    tracer, _ = installed
    from secondform import ambient, jets

    chart = ambient.space_form(3, 1.0)
    with tracer.span("op", "bench"):
        ambient.curvature_jet(chart, np.array([0.1, 0.2, 0.0]), order=0)
        x0 = [jets.Jet.constant(jets.jet_space(1, 0), v) for v in (0.0, 0.0, 0.0)]
        w = [jets.Jet.constant(jets.jet_space(1, 0), v) for v in (0.1, 0.0, 0.0)]
        ambient.exp_map(chart, x0, w, n_steps=8)
    stats = tracer.take()
    assert stats["calls"]["ambient.curvature_jet"] == 1
    assert stats["calls"]["ambient.exp_map"] == 1
    assert stats["calls"]["jets.inv"] == 2  # jinv of the metric in curvature_jet and christoffel
    assert stats["counts"]["ambient.rk4_steps"] == 8
    assert stats["counts"]["ambient.rk4_point_steps"] == 8
    assert stats["calls"]["jets.mul"] > 0 and stats["counts"]["jets.madds"] > 0
    assert sum(stats["self_s"].values()) == pytest.approx(stats["root_s"], rel=1e-9)
