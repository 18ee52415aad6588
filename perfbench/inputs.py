"""Seeded inputs for the three workloads.

Every function here is pure: the same (workload, seed) gives the same
inputs, byte for byte.  The seed changes values only (points, radii,
perturbation seeds and amplitudes), never sizes (grids, step counts, member
counts), so the work per operation does not depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("grid", "sphere", "curvature")

# Geodesic-sphere routines run with 32 RK4 steps, a quarter of the program's
# default of 128.  exp_map takes 75-90 % of each sphere operation at 32 steps
# and 94-97 % at 128 (README.md), so its share stays dominant; at 128 every
# operation takes 3-3.5 s instead of about 1 s, and a run of three whole
# rounds would outlast the run length.  At the radii used the endpoint error
# stays below 1e-12, far under every check's tolerance.
SPHERE_STEPS = 32

# The bumpy_e3 patches sit at a fixed non-symmetric centre and direction,
# where the series remainders are in their asymptotic regime for every
# radius drawn (near the origin the r^4 coefficients nearly cancel and the
# two-radius slope is meaningless).
BUMPY_CENTER = (0.2, -0.1, 0.15)
BUMPY_DIRECTION = (0.6, 0.5, -0.4)

_STREAM = {name: k for k, name in enumerate(WORKLOADS)}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# grid: scenario files for cli.run_scenario
# ---------------------------------------------------------------------------


def _scenario(name, subject, checks):
    return {"schema": 1, "name": name, "subject": subject, "checks": checks}


def grid_scenarios(seed: int) -> list:
    """(scenario name, scenario dict, expected exit code) in run order."""
    rng = rng_for("grid", seed)
    spread = {"check": "h_ii_route_spread", "tolerance": 1e-6}
    ovaloids = [
        {"kind": "perturbed_ovaloid", "seed": int(rng.integers(0, 2**31)),
         "amplitude": _u(rng, 0.02, 0.04)}
        for _ in range(6)
    ]
    space_forms = {
        name: {"kind": "perturbed_sphere_in_space_form", "Cbar": cbar, "m": 3,
               "base_radius": _u(rng, 0.5, 0.8), "amplitude": _u(rng, 0.01, 0.03),
               "seed": int(rng.integers(0, 2**31))}
        for name, cbar in (("s4", 1.0), ("h4", -1.0))
    }
    radius = _u(rng, 0.8, 1.25)
    two_pi_sq = 2.0 * math.pi**2
    out = [
        ("ovaloids", _scenario("ovaloids", {
            "type": "ensemble", "immersions": ovaloids, "grid": [9, 17]}, [spread]), 0),
        ("perturbed_s4", _scenario("perturbed_s4", {
            "type": "immersion", "immersion": space_forms["s4"], "grid": [5, 5, 9]},
            [spread]), 0),
        ("perturbed_h4", _scenario("perturbed_h4", {
            "type": "immersion", "immersion": space_forms["h4"], "grid": [5, 5, 9]},
            [spread]), 0),
        ("clifford", _scenario("clifford", {
            "type": "immersion", "immersion": {"kind": "clifford"}, "grid": [64, 128]},
            [{"check": "max_abs_h_ii", "tolerance": 1e-6}, spread,
             {"check": "all_points_valid", "tolerance": 0.5}]), 0),
        ("s3_in_s4", _scenario("s3_in_s4", {
            "type": "immersion",
            "immersion": {"kind": "small_sphere_in_sphere", "geodesic_radius": math.pi / 4,
                          "m": 3},
            "grid": [6, 6, 12]},
            [{"check": "max_abs_h_ii", "tolerance": 1e-6}, spread]), 0),
        ("clifford_area", _scenario("clifford_area", {
            "type": "immersion", "immersion": {"kind": "clifford"}, "grid": [48, 48]},
            [{"check": "area_matches", "functional": "second_form", "expected": two_pi_sq,
              "tolerance": 1e-6},
             {"check": "area_matches", "functional": "first_form", "expected": two_pi_sq,
              "tolerance": 1e-6}]), 0),
        ("first_variation", _scenario("first_variation", {
            "type": "first_variation",
            "immersion": {"kind": "round_sphere", "radius": radius},
            "grid": [20, 40], "amplitudes": ["one", "cos_theta", "harmonic22"]},
            [{"check": "first_variation_gap", "amplitude": a, "which": w, "tolerance": 1e-3}
             for a in ("one", "cos_theta", "harmonic22") for w in ("area", "area_ii")]), 0),
    ]
    out.extend(malformed_probes())
    return out


def malformed_probes() -> list:
    """Scenarios the documented contract calls malformed (exit code 2).

    They do not depend on the seed.
    """
    ok = [{"check": "h_ii_route_spread", "tolerance": 1e-6}]
    sphere = {"kind": "round_sphere", "radius": 1.0}
    return [
        ("probe_missing_grid", _scenario("probe_missing_grid", {
            "type": "immersion", "immersion": sphere}, ok), 2),
        ("probe_bad_tolerance", _scenario("probe_bad_tolerance", {
            "type": "immersion", "immersion": sphere, "grid": [4, 8]},
            [{"check": "max_abs_h_ii", "tolerance": "abc"}]), 2),
        ("probe_unknown_kind", _scenario("probe_unknown_kind", {
            "type": "immersion", "immersion": {"kind": "no_such_immersion"},
            "grid": [4, 8]}, ok), 2),
        ("probe_unknown_parameter", _scenario("probe_unknown_parameter", {
            "type": "immersion", "immersion": {"kind": "round_sphere", "radius": 1.0, "bogus": 3},
            "grid": [4, 8]}, ok), 2),
    ]


# ---------------------------------------------------------------------------
# sphere: radii and centres for the geodesic-sphere routines
# ---------------------------------------------------------------------------


def sphere_inputs(seed: int) -> dict:
    rng = rng_for("sphere", seed)
    return {
        "s3_r": _u(rng, 0.25, 0.45),
        "bumpy_r": _u(rng, 0.10, 0.18),
        "adc_r": _u(rng, 0.3, 0.6),
        "fv_r": _u(rng, 0.3, 0.6),
        "whole_grid": (6, 12),
        "adc_grid": (6, 12),
        "fv_grid": (6, 12),
    }


# ---------------------------------------------------------------------------
# curvature: single points and synthetic framed jets
# ---------------------------------------------------------------------------


CURVATURE_CHARTS = {
    "bumpy_e3": {"kind": "custom", "name": "bumpy_e3"},
    "s3": {"kind": "space_form", "dim": 3, "index": 0, "Cbar": 1.0},
    "h3": {"kind": "space_form", "dim": 3, "index": 0, "Cbar": -1.0},
    "s4": {"kind": "space_form", "dim": 4, "index": 0, "Cbar": 1.0},
    "s2xs2": {"kind": "product", "factors": [
        {"kind": "space_form", "dim": 2, "index": 0, "Cbar": 1.0},
        {"kind": "space_form", "dim": 2, "index": 0, "Cbar": 1.0}]},
    "e4": {"kind": "space_form", "dim": 4, "index": 0, "Cbar": 0.0},
}

CURVATURE_ORDER2 = ("bumpy_e3", "s3", "h3", "s4", "s2xs2")
FLATNESS_CHARTS = ("e4", "s4", "s2xs2")
N_SYNTHETIC_JETS = 600


def chart_dim(desc: dict) -> int:
    if desc["kind"] == "product":
        return sum(chart_dim(f) for f in desc["factors"])
    return 3 if desc["kind"] == "custom" else int(desc["dim"])


def curvature_inputs(seed: int) -> dict:
    rng = rng_for("curvature", seed)
    points = {name: rng.uniform(-0.4, 0.4, size=chart_dim(CURVATURE_CHARTS[name]))
              for name in CURVATURE_ORDER2}
    flat_points = {name: rng.uniform(-0.4, 0.4, size=chart_dim(CURVATURE_CHARTS[name]))
                   for name in FLATNESS_CHARTS}
    return {
        "points": points,
        "flat_points": flat_points,
        "jets_seed": int(rng.integers(0, 2**31)),
        "series_r": _u(rng, 0.05, 0.2),
    }

