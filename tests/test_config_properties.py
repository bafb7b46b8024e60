"""Property tests of the scenario loader: whatever the config, `load_config`
returns or raises ConfigError, and every (kind, initial, boundary) it accepts
builds its datum and its ghosts on the run's grid."""
import copy
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crflow import radial as RD
from crflow import scenarios as SC
from crflow.errors import ConfigError

INITIALS = sorted({*SC.RADIAL_DATA, *SC.TORUS_DATA})
# the reference metrics the loader takes, and a catalog metric it does not
H_KEYS = sorted(SC.H_METRICS) + ["bergman-ball"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 100)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

# per field, values that pass or nearly pass, so that the value checks run
PLAUSIBLE = {
    "kind": st.sampled_from(SC.KINDS),
    "initial": st.sampled_from(INITIALS),
    "boundary": st.sampled_from(SC.BOUNDARIES),
    "topology": st.sampled_from(["radial-disk", "periodic-box"]),
    "h": st.sampled_from(H_KEYS),
    "checks": st.lists(st.sampled_from(tuple(SC.CHECKS) + ("bogus",)),
                       max_size=3),
}


def _value(key, default):
    if key in PLAUSIBLE:
        plausible = PLAUSIBLE[key]
    elif isinstance(default, float) or default is None:
        plausible = st.floats(-1.0, 2.0) | st.none()
    elif isinstance(default, int):
        plausible = st.integers(0, 64)
    else:       # a fresh copy, so that no draw shares DEFAULTS' objects
        plausible = st.builds(copy.deepcopy, st.just(default))
    return plausible | json_values


def _section(fields):
    return st.dictionaries(st.sampled_from(sorted(fields)), st.none(),
                           max_size=len(fields)).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: _value(k, fields[k]) for k in keys}))


CONFIG_FIELDS = {**SC.DEFAULTS, "chart": SC.CHART_KEYS, "scenario_name": "s",
                 "kind": "torus", "checks": []}


@st.composite
def configs(draw):
    cfg = {}
    for key in draw(st.sets(st.sampled_from(sorted(CONFIG_FIELDS)))):
        default = CONFIG_FIELDS[key]
        if isinstance(default, dict) and draw(st.booleans()):
            cfg[key] = draw(_section(default))
        else:
            cfg[key] = draw(_value(key, default))
    if draw(st.booleans()):
        cfg[draw(st.text(max_size=6))] = draw(json_values)
    return cfg


with open(SC.bundled_manifest()) as f:
    BUNDLED = [SC.load_config(os.path.join(SC.bundled_scenario_dir(), name))
               for name in json.load(f)["scenarios"]]


@st.composite
def mutated(draw):
    """A bundled scenario with one or two fields redrawn: many of these
    pass, so the loader's accepting path runs too."""
    cfg = copy.deepcopy(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(sorted(CONFIG_FIELDS)))
        fields = CONFIG_FIELDS[key]
        if (isinstance(fields, dict) and isinstance(cfg.get(key), dict)
                and draw(st.booleans())):
            k = draw(st.sampled_from(sorted(fields)))
            cfg[key][k] = draw(_value(k, fields[k]))
        else:
            cfg[key] = draw(_value(key, fields))
    return cfg


@settings(max_examples=400, deadline=None)
@given(configs() | mutated() | json_values)
def test_load_config_raises_only_config_error(raw):
    try:
        cfg = SC.load_config(raw)
    except ConfigError as e:
        assert e.violations and all(isinstance(v, str) for v in e.violations)
    else:
        # echoed in report.json as it stands, and strict JSON
        json.dumps(cfg, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(SC.KINDS), initial=st.sampled_from(INITIALS),
       boundary=st.sampled_from(SC.BOUNDARIES),
       r_max=st.floats(0.05, 0.98), nodes=st.integers(8, 48),
       order=st.sampled_from([4, 6]), amplitude=st.floats(-0.5, 0.5))
@example(kind="radial", initial="flat", boundary="exact-ke", r_max=0.8,
         nodes=10, order=6, amplitude=0.0)      # a ghost at r = 1.0
def test_accepted_data_build_on_the_grid(kind, initial, boundary, r_max, nodes,
                                         order, amplitude):
    """Without running a flow: lam0 is finite and positive on the grid, and
    a datum's exact ghosts start from the datum itself."""
    chart = {"grid_resolution": nodes}
    chart.update({"box_length": 1.0} if kind == "torus" else {"r_max": r_max})
    raw = {"scenario_name": "p", "kind": kind, "chart": chart,
           "metrics": {"h": "euclidean"},     # the one h every kind fits
           "flow": {"initial": initial, "boundary": boundary, "order": order,
                    "perturbation_amplitude": amplitude, "t_max": 0.1,
                    "s_max": 1.0}}
    try:
        cfg = SC.load_config(raw)
    except ConfigError:
        return
    if kind == "torus":
        lam0 = SC._torus_datum(cfg)
        assert lam0.shape == (nodes, nodes)
        assert np.all(np.isfinite(lam0)) and lam0.min() > 0
        return
    grid = RD.RadialGrid(r_max, nodes, order)
    lam0, ghosts = SC._radial_datum(cfg)
    assert np.all(np.isfinite(lam0(grid.r))) and lam0(grid.r).min() > 0
    assert (ghosts is None) == (boundary == "extrapolate")
    if ghosts is not None:
        rg = grid.outer_ghost_radii()
        assert rg[-1] == SC._outer_ghost(r_max, nodes, order)
        g = ghosts(rg, 0.1)
        assert np.all(np.isfinite(g)) and g.min() > 0
        if boundary == "exact-homothety":
            assert np.allclose(ghosts(rg, 0.0), lam0(rg), rtol=1e-15, atol=0)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(SC.KINDS), h=st.sampled_from(H_KEYS),
       mutate=st.booleans())
def test_load_config_accepts_h_exactly_when_the_table_fits_it(kind, h,
                                                              mutate):
    """metrics.h is accepted exactly when `H_METRICS` holds it for the kind:
    the torus takes the flat h only, and a catalog metric with no radial
    profile (bergman-ball) is refused at load time, before any run."""
    chart = {"grid_resolution": 16}
    chart.update({"box_length": 1.0} if kind == "torus" else {"r_max": 0.5})
    raw = {"scenario_name": "p", "kind": kind, "chart": chart,
           "metrics": {"h": h},
           "flow": {"initial": "flat", "t_max": 0.1, "s_max": 1.0}}
    if mutate:      # a second violation does not hide the h one
        raw["flow"]["order"] = 5
    fits = h in SC.H_METRICS and kind in SC.H_METRICS[h][1]
    try:
        SC.load_config(raw)
    except ConfigError as e:
        h_errors = [v for v in e.violations if v.startswith("metrics.h ")]
        assert len(h_errors) == (0 if fits else 1)
        assert len(e.violations) == len(h_errors) + mutate
    else:
        assert fits and not mutate


def _radial(kind="radial", initial="flat", boundary="exact-ke", r_max=0.8,
            nodes=10, order=6):
    return {"scenario_name": "p", "kind": kind,
            "chart": {"grid_resolution": nodes, "r_max": r_max},
            "metrics": {"h": "euclidean"},
            "flow": {"initial": initial, "boundary": boundary, "order": order,
                     "t_max": 0.1, "phase1_t": 0.1, "s_max": 1.0}}


@pytest.mark.parametrize("kind,initial,boundary,r_max,nodes,least", [
    # the outermost of three ghosts at 0.84, 0.92, 1.00: lam_KE(1) = inf
    ("radial", "flat", "exact-ke", 0.8, 10, 11),
    # ghosts at 0.980, 1.039, 1.098, where (1 - r^2)^-2 is finite but wrong
    ("two-phase-normalized", "perturbed-poincare", "exact-homothety", 0.95,
     16, 48),
    ("radial", "poincare", "exact-homothety", 0.8, 10, 11),
    ("radial-normalized", "hyperbolic-ke", "exact-homothety", 0.8, 10, 11),
    # phase 1 takes the cap's exact flow, phase 2 the KE ghosts
    ("two-phase-normalized", "fubini-cap", "exact-homothety", 0.8, 10, 11),
    # r_max one ulp below 1: the least grid is found by bisection, where a
    # search stepping N by one would not end
    ("radial", "poincare", "exact-homothety", 1.0 - 2**-53, 16,
     45035996273704956),
])
def test_ghosts_at_or_past_the_singular_radius_are_rejected(
        kind, initial, boundary, r_max, nodes, least):
    """One ConfigError, naming the least grid_resolution that fits; that
    grid is accepted."""
    with pytest.raises(ConfigError) as ei:
        SC.load_config(_radial(kind, initial, boundary, r_max, nodes))
    [v] = ei.value.violations
    assert f"chart.grid_resolution must be >= {least} " in v
    SC.load_config(_radial(kind, initial, boundary, r_max, least))


@pytest.mark.parametrize("kind,initial,boundary", [
    ("radial", "fubini-cap", "exact-homothety"),
    ("radial", "flat", "exact-homothety"),
    ("radial", "poincare", "extrapolate"),
    ("two-phase-normalized", "poincare", "extrapolate"),
])
def test_ghost_fields_regular_at_r_one_are_accepted(kind, initial, boundary):
    """The cap's and the flat flow's ghosts are finite and exact past
    r = 1, and extrapolated ghosts read no field."""
    SC.load_config(_radial(kind, initial, boundary))


def test_tracking_interior_below_the_first_node_is_rejected():
    """Below r_max / (2 grid_resolution) the tracking check would mask every
    node: poincare-homothety's first node is at 0.85/192 = 0.0044."""
    path = os.path.join(SC.bundled_scenario_dir(), "poincare-homothety.json")
    with open(path) as f:
        raw = json.load(f)
    first = 0.5 * (0.85 / 96)
    for value in (0.001, np.nextafter(first, 0.0)):
        raw["tolerances"]["tracking_interior"] = float(value)
        with pytest.raises(ConfigError) as ei:
            SC.load_config(raw)
        assert [v.split(" ")[0] for v in ei.value.violations] == [
            "tolerances.tracking_interior"]
    raw["tolerances"]["tracking_interior"] = first
    cfg = SC.load_config(raw)
    assert SC._chk_tracking(cfg, _poincare_run_stub(cfg)).satisfied


def _poincare_run_stub(cfg):
    """A result with one exact frame at t = 0 on the config's grid."""
    grid = RD.RadialGrid(cfg["chart"]["r_max"], cfg["chart"]["grid_resolution"],
                         cfg["flow"]["order"])
    frame = SimpleNamespace(time=0.0, lam=RD.poincare_lambda(grid.r))
    run = SimpleNamespace(grid=grid, frames=[frame])
    return SimpleNamespace(phase1=run, run=None)


def test_metrics_g0_is_an_unknown_key():
    """The initial metric is flow.initial; a g0 slot that no run reads is
    rejected, not echoed."""
    raw = {"scenario_name": "p", "kind": "radial",
           "metrics": {"g0": "poincare-disk", "h": "poincare-disk"},
           "chart": {"grid_resolution": 16, "r_max": 0.5},
           "flow": {"t_max": 0.1}}
    with pytest.raises(ConfigError) as ei:
        SC.load_config(raw)
    assert ei.value.violations == ["unknown key 'metrics.g0'"]
    assert "g0" not in SC.DEFAULTS["metrics"]
