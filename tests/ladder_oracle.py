"""The s-ladder: the finite-difference reference for the exact first variation.

Central differences (A(s) − A(−s))/2s of A = (Area, Area_II) over the
deformed immersions μ_{±s} of one ``deformed_family``, in either deformation
mode, each member's pair from one frame pass (``variation.areas``), combined
by Richardson extrapolation over s-halving steps.  This is how d/ds was
measured before it was read off a jet in ε; the tests hold the exact route
to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from secondform.ambient import _stack_list, exp_map
from secondform.hypersurface import Immersion, frame_jets, resolved_orientation
from secondform.jets import Jet, _cauchy, seed_jets
from secondform.variation import areas

LADDER = (1e-2, 5e-3, 2.5e-3)


def deformed_family(base, f, mode, scales):
    """The deformed immersions μ_s, one per nonzero s in `scales`, with
    variation field f·U: chart_linear is the chart line x + (f·s)·U, and
    ambient_exponential is exp_x((f·s)·U), the scales of one sign on one
    ``exp_map`` path with w = (f·e)·U for the e of largest |s| among them,
    stops s/e (read off the sweeps' interpolants where the chart has no
    closed-form flow).  The base frame and the amplitude are evaluated once
    per node set and jet order for all members, at one order higher than the
    members' (the normal costs one derivative), so the maps must be
    evaluated at plain coordinate seeds.  Every member keeps the base's
    resolved orientation, so that re-running the auto rule on a deformed
    surface cannot flip its normal between +s and −s."""
    if mode not in ("chart_linear", "ambient_exponential"):
        raise ValueError(f"unknown deformation mode {mode!r}")
    memo = {}

    def evaluate(space, u_jets):
        u0 = np.stack([np.asarray(j.value, float) for j in u_jets], axis=-1)
        jets = seed_jets(u0, base.param_dim, space.order + 1)
        b = frame_jets(base, jets)
        amp = f(jets).coeffs[:, None]

        def w(s):
            return _cauchy(space, amp * s, b.U)

        if mode == "chart_linear":
            return {s: b.xc[: space.n] + w(s) for s in scales}
        out = {}
        for sign in (1.0, -1.0):
            same = [s for s in scales if s * sign > 0]
            if same:
                end = sign * max(s * sign for s in same)
                stops = sorted({s / end for s in same})
                ends = exp_map(base.ambient, space, b.xc, w(end), n_steps=64, stops=stops)
                out.update((s, ends[stops.index(s / end)][0]) for s in same)
        return out

    def map_fn(u_jets, s):
        space, seeds = _stack_list(u_jets)
        key = (space.n, seeds.tobytes())
        if key not in memo:
            memo[key] = evaluate(space, u_jets)
        return [Jet(space, memo[key][s][:, a]) for a in range(base.ambient.dim)]

    orientation = resolved_orientation(base)
    return [
        Immersion(
            ambient=base.ambient, param_dim=base.param_dim,
            map_fn=lambda u, s=s: map_fn(u, s),
            param_lo=base.param_lo, param_hi=base.param_hi,
            orientation=orientation, grid_hint=base.grid_hint,
        )
        for s in scales
    ]


def richardson(values):
    """One limit value from s-halved central differences (error O(s²))."""
    vals = list(values)
    while len(vals) > 1:
        vals = [(4 * vals[i + 1] - vals[i]) / 3.0 for i in range(len(vals) - 1)]
    return vals[0]


def fit_slope(s_values, errors, floor):
    """Least-squares slope of log|error| against log s over the errors above
    `floor`; +inf when fewer than two are."""
    s_values, errors = np.asarray(s_values, float), np.abs(np.asarray(errors, float))
    good = errors > floor
    if np.sum(good) < 2:
        return math.inf
    return float(np.polyfit(np.log(s_values[good]), np.log(errors[good]), 1)[0])


@dataclass
class Ladder:
    s: tuple
    diffs: np.ndarray  # (len(s), 2): difference quotients of (Area, Area_II)
    value: np.ndarray  # (2,): their Richardson limit
    error: np.ndarray  # (2,): how far that limit can be from d/ds (see `ladder`)

    def slopes(self, rhs):
        """The log-log slopes of |difference quotient − rhs| in s, for
        rhs = (rhs_area, rhs_area_ii); +inf where they sit at rounding."""
        rhs = np.asarray(rhs, float)
        return tuple(
            fit_slope(self.s, self.diffs[:, k] - rhs[k], 1e-11 * (1 + abs(rhs[k])))
            for k in range(2)
        )


def ladder(imm, f, grid, s_ladder=LADDER, mode="chart_linear") -> Ladder:
    """The ±s ladder of (Area, Area_II) for the deformation of `imm` with
    normal amplitude f, on `grid`.

    Its error is the distance between the Richardson limits of the whole
    ladder and of all but its finest step (the truncation still in the
    extrapolant), plus the rounding that the differences amplify: 64 units
    of roundoff in the areas, divided by 2·s_min.
    """
    family = deformed_family(imm, f, mode, [t for s in s_ladder for t in (s, -s)])
    pairs = np.array([areas(member, grid) for member in family])  # (2·len, 2)
    s = np.asarray(s_ladder, float)[:, None]
    diffs = (pairs[::2] - pairs[1::2]) / (2 * s)
    value = richardson(diffs)
    rounding = 64 * np.finfo(float).eps * np.max(np.abs(pairs), axis=0) / (2 * min(s_ladder))
    return Ladder(tuple(s_ladder), diffs, value, np.abs(value - richardson(diffs[:-1])) + rounding)
