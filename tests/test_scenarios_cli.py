import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from crflow import radial as RD
from crflow import scenarios as SC
from crflow.cli import main
from crflow.artifacts import (REPORT_SCHEMA, TABLE_SCHEMA, plot_run_csv,
                              read_run_csv, svg_line_plot, validate_schema)
from crflow.errors import ConfigError, FlowBreakdownError, ManifestError

FAST_TORUS = {
    "scenario_name": "t",
    "kind": "torus",
    "metrics": {"h": "euclidean"},
    "chart": {"complex_dimension": 1, "topology": "periodic-box",
              "grid_resolution": 16, "box_length": 1.0},
    "flow": {"initial": "flat", "t_max": 0.004, "frame_dt": 0.001},
    "checks": ["flat-stationarity"],
    "seed": 0,
}

FAST_RADIAL = {
    "scenario_name": "r",
    "kind": "radial",
    "metrics": {"h": "poincare-disk"},
    "chart": {"complex_dimension": 1, "topology": "radial-disk",
              "grid_resolution": 64, "r_max": 0.8},
    "flow": {"initial": "hyperbolic-ke", "boundary": "exact-homothety",
             "order": 6, "t_max": 0.2, "frame_dt": 0.02},
    "tolerances": {"tracking": 1e-6, "tracking_interior": 0.8},
    "checks": ["exact-homothety-tracking"],
}


def _cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "crflow.cli", *args],
                          capture_output=True, text=True, env=env)



def test_import_loads_neither_fft_nor_quadrature():
    """`import crflow`, as every `crflow` command starts, leaves scipy.fft
    (the torus solve is numpy.fft's) and scipy.integrate with the
    scipy.special it pulls in (frakF's quadrature imports it at its first
    call) unloaded."""
    heavy = ("scipy.fft", "scipy.integrate", "scipy.special")
    code = ("import crflow, sys; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ), check=True)
    assert out.stdout.split() == []


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter after `code`, one
    list per `report()` that it calls."""
    prelude = ("import sys\n"
               "def report():\n"
               "    print(' '.join(sorted(m for m in sys.modules\n"
               "                          if m.split('.')[0] == 'scipy')))\n")
    out = subprocess.run([sys.executable, "-c", prelude + code],
                         capture_output=True, text=True,
                         env=dict(os.environ), check=True)
    return [line.split() for line in out.stdout.splitlines()]


def test_cold_start_loads_no_scipy_until_the_first_radial_grid():
    """`import crflow.cli` and torus flows in both forms load no scipy
    module; the first `RadialGrid` brings scipy.linalg's banded LAPACK."""
    cli, torus, grid = _scipy_modules_after(
        "import numpy as np\n"
        "import crflow.cli\n"
        "report()\n"
        "from crflow.flow import run_torus_flow\n"
        "lam0 = np.exp(0.1 * np.cos(2 * np.pi * np.arange(16) / 16))\n"
        "for mode in ('metric', 'potential'):\n"
        "    run_torus_flow(np.outer(lam0, lam0), 1.0, 0.002, mode=mode)\n"
        "report()\n"
        "from crflow.radial import RadialGrid\n"
        "RadialGrid(0.8, 16)\n"
        "report()\n")
    assert cli == [] and torus == []
    assert "scipy.linalg" in grid


@pytest.mark.parametrize("base, section, key, literal", [
    (FAST_RADIAL, "flow", "s_max", "Infinity"),
    (FAST_RADIAL, "tolerances", "tracking", "Infinity"),
    (FAST_TORUS, "flow", "min_eig_floor", "-Infinity"),
], ids=["s_max", "tolerance", "min_eig_floor"])
def test_config_file_rejects_numbers_that_are_not_finite(tmp_path, base,
                                                         section, key,
                                                         literal):
    """json.load reads +-Infinity (and NaN); each is one ConfigError naming
    its key, before the loader reads any value."""
    cfg = json.loads(json.dumps(base))
    cfg[section][key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    with pytest.raises(ConfigError) as ei:
        SC.load_config(str(path))
    assert ei.value.violations == [
        f"{section}.{key} must be a finite number, got "
        f"{float(literal)!r}"]


def test_config_validation_lists_every_violation():
    bad = {"scenario_name": "", "kind": "nope",
           "metrics": {"h": "no-such-key"},
           "chart": {"grid_resolution": 4}, "checks": ["bogus-check"],
           "barrier": {"alpha": 0.5, "beta": -1}}
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    msg = str(ei.value)
    assert "barrier.alpha" in msg
    assert "barrier.beta" in msg
    assert "scenario_name" in msg
    assert "kind" in msg
    assert "no-such-key" in msg
    assert "grid_resolution" in msg
    assert "bogus-check" in msg


def test_config_rejects_unknown_keys():
    bad = json.loads(json.dumps(FAST_TORUS))
    bad["chart"]["topologgy"] = "periodic-box"
    bad["flow"]["safty"] = 0.5
    bad["flow"]["safety"] = 0.2     # retired: no flow a config runs has a CFL step
    bad["barrier"] = {"k": 2.0}     # retired: no barrier formula reads it
    bad["frobnicate"] = True
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    assert ei.value.violations == ["unknown key 'chart.topologgy'",
                                   "unknown key 'flow.safty'",
                                   "unknown key 'flow.safety'",
                                   "unknown key 'barrier.k'",
                                   "unknown key 'frobnicate'"]


@pytest.mark.parametrize("section,key,value,needle", [
    ("flow", "safety", 1.4, "flow.safety"),
    ("flow", "safety", 0.0, "flow.safety"),
    ("chart", "complex_dimension", 2, "chart.complex_dimension"),
    ("chart", "topology", "radial-disk", "chart.topology"),
    ("flow", "initial", "poincare", "flow.initial"),
    ("flow", "initial", "fubini-cap", "flow.initial"),
    ("flow", "t_max", float("nan"), "flow.t_max"),
    ("flow", "frame_dt", -0.001, "flow.frame_dt"),
    ("barrier", "alpha", 0.5, "barrier.alpha"),
    ("barrier", "beta", -1.0, "barrier.beta"),
])
def test_config_rejects_values_no_run_honours(section, key, value, needle):
    """A value the integrator would cap or ignore is a ConfigError, not an
    echo in report.json; so is a barrier constant that the check would
    refuse after the whole flow had run."""
    bad = json.loads(json.dumps(FAST_TORUS))
    bad.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    assert len(ei.value.violations) == 1
    assert needle in ei.value.violations[0]


@pytest.mark.parametrize("section, key, value", [
    ("flow", "t_max", "abc"),
    ("flow", "min_eig_floor", True),
    ("flow", "order", 4.0),
    ("flow", None, 5),
    ("chart", None, "x"),
    ("chart", "box_length", "1"),
    ("tolerances", None, 1),
    ("checks", None, 3),
    ("checks", None, ["flat-stationarity", 1]),
])
def test_config_rejects_values_of_the_wrong_type(section, key, value):
    """A value whose type its default does not allow is one ConfigError,
    before the loader or the run reads it."""
    bad = json.loads(json.dumps(FAST_TORUS))
    if key is None:
        bad[section] = value
    else:
        bad[section][key] = value
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    assert len(ei.value.violations) == 1
    path = section if key is None else f"{section}.{key}"
    assert ei.value.violations[0].startswith(path + " ")


@pytest.mark.parametrize("kind, flow, r_max, needle", [
    ("radial", {"initial": "bumpy"}, 0.8, "flow.initial"),
    ("radial", {"initial": "perturbed-poincare"}, 0.7, "r_max >= 0.8"),
    ("two-phase-normalized", {"s_max": 1.0, "phase1_t": float("nan")}, 0.8,
     "flow.phase1_t"),
])
def test_radial_config_needs_a_datum_and_horizons_it_can_run(kind, flow,
                                                             r_max, needle):
    """The torus' bumpy datum has no radial profile, the perturbed datum's
    exact ghosts need its bump, which ends at r = 0.8, inside r_max, and
    phase 1 needs a horizon that ends."""
    bad = json.loads(json.dumps(FAST_RADIAL))
    bad["kind"], bad["chart"]["r_max"] = kind, r_max
    bad["flow"].update(flow)
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    assert len(ei.value.violations) == 1
    assert needle in ei.value.violations[0]


def test_exact_homothety_is_the_datum_s_own_flow():
    """hyperbolic-ke with exact-homothety ghosts tracks (2 + 2t)(1 - r^2)^-2
    to the stencil's accuracy, and flat data with them stays exactly 1."""
    report = SC.run_scenario(FAST_RADIAL)
    assert report["pass"]
    assert report["checks"][0]["extra"]["max_rel_error"] < 1e-7
    flat = json.loads(json.dumps(FAST_RADIAL))
    flat["flow"]["initial"] = "flat"
    flat["metrics"] = {"h": "euclidean"}
    report = SC.run_scenario(flat)
    assert report["checks"][0]["extra"]["max_rel_error"] == 0.0


def _strict_json(text):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def test_trace_barrier_with_s_zero_is_a_constant_barrier(tmp_path):
    """kappa0 = beta = 0, the constants of the flat, torsion-free h, give
    S = 0: the barrier is the constant n alpha + 1 on [0, inf), so every
    frame lies in its domain and c1, which does not enter it, calibrates to
    0.  The calibration once divided by S, and the run ended in an error."""
    cfg = json.loads(json.dumps(FAST_RADIAL))
    cfg["flow"]["initial"] = "poincare"
    cfg["metrics"] = {"h": "euclidean"}
    cfg["barrier"] = {"kappa0": 0.0, "beta": 0.0}
    cfg["checks"] = ["trace-barrier"]
    report = SC.run_scenario(cfg, str(tmp_path))
    assert report["pass"]
    extra = report["checks"][0]["extra"]
    assert extra["frames_in_domain"] == extra["frames_total"] == 11
    assert extra["calibrated_c1"] == 0.0
    assert _strict_json((tmp_path / "r" / "report.json").read_text()) == \
        json.loads(json.dumps(report))


def _bundled(name):
    with open(os.path.join(SC.bundled_scenario_dir(), name + ".json")) as f:
        return json.load(f)


@pytest.mark.parametrize("base, check", [
    ("flat-disk-normalized", "scalar-lower-bound"),
    ("radial", "flat-stationarity"),
    ("torus", "exact-homothety-tracking"),
    ("torus", "ke-convergence"),
])
def test_config_rejects_a_check_that_does_not_fit_the_kind(base, check):
    """A check that reads a run the kind does not make is a ConfigError, not
    an exception inside the check: scalar-lower-bound on a normalized-only
    run once fell through to its torus branch (KeyError 'box_length')."""
    cfg = {"radial": FAST_RADIAL, "torus": FAST_TORUS}.get(base) \
        or _bundled(base)
    bad = json.loads(json.dumps(cfg))
    bad["checks"] = [check]
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    assert len(ei.value.violations) == 1
    assert f"check {check!r} does not fit kind" in ei.value.violations[0]


def test_cli_exit_two_on_a_check_that_does_not_fit_the_kind(tmp_path):
    bad = _bundled("flat-disk-normalized")
    bad["checks"].append("scalar-lower-bound")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    r = CliRunner().invoke(main, ["run", str(p), "-o", str(tmp_path / "o")])
    assert r.exit_code == 2
    assert "scalar-lower-bound" in r.output


def test_exact_homothety_on_a_normalized_run_is_its_normalized_flow():
    """radial-normalized from Poincare data (64 nodes, order 6, r_max 0.8)
    with exact-homothety ghosts: the ghosts are (2 - e^-s)(1 - r^2)^-2, the
    datum's exact normalized flow, and the run tracks that flow to 1e-7.
    They were the unnormalized flow read at s, which put the run 145% off
    at s = 2."""
    cfg = SC.load_config({
        "scenario_name": "pn", "kind": "radial-normalized",
        "chart": {"grid_resolution": 64, "r_max": 0.8},
        "flow": {"initial": "poincare", "boundary": "exact-homothety",
                 "order": 6, "s_max": 2.0, "frame_dt": 0.1},
        "checks": ["exact-homothety-tracking"]})
    _, ghosts = SC._radial_datum(cfg)
    r = np.linspace(0.8, 0.9, 5)
    for s in (0.0, 0.5, 2.0):
        np.testing.assert_allclose(
            ghosts(r, s), (2.0 - np.exp(-s)) * RD.poincare_lambda(r),
            rtol=1e-14, atol=0)
    report = SC.run_scenario(cfg)
    assert report["pass"] and report["frames_written"] == 21
    assert report["checks"][0]["extra"]["max_rel_error"] < 1e-7


def test_two_phase_run_evaluates_its_ke_ghosts_once(monkeypatch):
    """The bundled poincare-homothety run's phase 2 takes the KE profile as
    ghosts, which the ghost table declares steady: the run evaluates it at
    the ghost radii once, for the stepper and every check alike.  Evaluated
    at each stage time, it took 4,000-odd calls."""
    calls = []
    ke = RD.ke_lambda

    def counted(r):
        calls.append(np.min(r))
        return ke(r)

    monkeypatch.setattr(RD, "ke_lambda", counted)
    cfg = _bundled("poincare-homothety")
    report = SC.run_scenario(cfg)
    assert report["pass"]
    ghost_calls = [r for r in calls if r > cfg["chart"]["r_max"]]
    assert len(ghost_calls) == 1


def test_bundled_scenarios_load():
    with open(SC.bundled_manifest()) as f:
        names = json.load(f)["scenarios"]
    for name in names:
        SC.load_config(os.path.join(SC.bundled_scenario_dir(), name))


def test_config_defaults_are_echoed():
    cfg = SC.load_config(FAST_TORUS)
    assert cfg["flow"]["frame_dt"] == 0.001
    assert cfg["flow"]["order"] == 4
    assert cfg["tolerances"]["stationarity"] == 1e-12
    assert cfg["barrier"]["c1"] == 1.0


def test_run_scenario_report_and_schema(tmp_path):
    report = SC.run_scenario(FAST_TORUS, str(tmp_path))
    assert report["pass"] is True
    assert validate_schema(report, REPORT_SCHEMA) == []
    d = tmp_path / "t"
    assert (d / "run.csv").exists() and (d / "report.json").exists()
    rows = read_run_csv(str(d / "run.csv"))
    assert list(rows[0]) == ["step", "time", "sup_lambda", "inf_tR",
                             "ke_residual", "min_eig", "phi_prime_min",
                             "phi_prime_max"]
    # timing lives outside the deterministic report
    assert "wall" not in json.dumps(json.load(open(d / "report.json")))
    assert (d / "timing.json").exists()


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    SC.run_scenario(FAST_TORUS, str(a))
    SC.run_scenario(FAST_TORUS, str(b))
    for name in ("run.csv", "report.json"):
        assert (a / "t" / name).read_bytes() == (b / "t" / name).read_bytes()


def test_schema_validator_catches_violations():
    assert validate_schema({"rows": [], "pass": True}, TABLE_SCHEMA)
    good = {"schema_version": "1", "rows": [], "pass": True}
    assert validate_schema(good, TABLE_SCHEMA) == []
    bad_row = {"schema_version": "1", "pass": True,
               "rows": [{"scenario": "x", "check": "y", "slack": 0.1}]}
    errs = validate_schema(bad_row, TABLE_SCHEMA)
    assert any("pass" in e for e in errs)


def test_verify_all_aggregates(tmp_path):
    cfg_path = tmp_path / "fast.json"
    cfg_path.write_text(json.dumps(FAST_TORUS))
    manifest = tmp_path / "suite.json"
    manifest.write_text(json.dumps({"scenarios": ["fast.json"]}))
    code, master = SC.verify_all(str(manifest), str(tmp_path / "out"))
    assert code == 0
    assert master["pass"] is True
    assert (tmp_path / "out" / "master_table.json").exists()
    assert (tmp_path / "out" / "master_table.csv").exists()


def test_verify_all_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"scenarios": []}))
    code, master = SC.verify_all(str(manifest), str(tmp_path / "out"))
    assert code == 0
    assert master["rows"] == []
    assert "empty manifest" in capsys.readouterr().out


def test_verify_all_missing_config(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"scenarios": ["gone.json"]}))
    with pytest.raises(ManifestError):
        SC.verify_all(str(manifest), str(tmp_path / "out"))


def test_forced_failure_sets_exit_one(tmp_path):
    cfg = json.loads(json.dumps(FAST_TORUS))
    cfg["scenario_name"] = "forced"
    cfg["tolerances"] = {"stationarity": 1e-20}
    cfg["flow"]["initial"] = "bumpy"
    cfg["flow"]["perturbation_amplitude"] = 0.02
    cfg_path = tmp_path / "forced.json"
    cfg_path.write_text(json.dumps(cfg))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"scenarios": ["forced.json"]}))
    code, master = SC.verify_all(str(manifest), str(tmp_path / "out"))
    assert code == 1
    failing = [r for r in master["rows"] if not r["pass"]]
    assert failing and failing[0]["check"] == "flat-stationarity"


# ---------------------------------------------------------------------------
# CLI process-level behaviour and exit codes
# ---------------------------------------------------------------------------

def test_cli_run_pass_and_artifacts(tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(FAST_TORUS))
    out = tmp_path / "out"
    r = _cli("run", str(cfg), "-o", str(out))
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    assert (out / "t" / "run.csv").exists()


def test_cli_output_root_env(tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(FAST_TORUS))
    r = _cli("run", str(cfg),
             env_extra={"CRFLOW_OUTPUT_ROOT": str(tmp_path / "envout")})
    assert r.returncode == 0
    assert (tmp_path / "envout" / "t" / "run.csv").exists()


def test_cli_exit_two_on_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    bad = json.loads(json.dumps(FAST_TORUS))
    bad["metrics"]["h"] = "missing-metric"
    cfg.write_text(json.dumps(bad))
    r = _cli("run", str(cfg), "-o", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "missing-metric" in r.stderr


def test_cli_exit_two_on_a_value_of_the_wrong_type(tmp_path):
    cfg = tmp_path / "bad.json"
    bad = json.loads(json.dumps(FAST_TORUS))
    bad["flow"]["t_max"] = "abc"
    cfg.write_text(json.dumps(bad))
    r = _cli("run", str(cfg), "-o", str(tmp_path / "o"))
    assert r.returncode == 2
    assert r.stderr.startswith("config error: ") and "flow.t_max" in r.stderr


def test_cli_exit_three_on_breakdown(tmp_path):
    cfg = {
        "scenario_name": "cap",
        "kind": "radial",
        "metrics": {"h": "euclidean"},
        "chart": {"complex_dimension": 1, "topology": "radial-disk",
                  "grid_resolution": 32, "r_max": 0.8},
        "flow": {"initial": "fubini-cap", "boundary": "exact-homothety",
                 "t_max": 0.6, "min_eig_floor": 0.05, "frame_dt": 0.05},
        "checks": ["scalar-lower-bound"],
    }
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(cfg))
    r = _cli("run", str(p), "-o", str(tmp_path / "o"))
    assert r.returncode == 3
    assert "breakdown" in r.stderr
    # partial artifacts flagged invalid
    report = json.load(open(tmp_path / "o" / "cap" / "report.json"))
    assert report["broken"] is True
    assert report["pass"] is False


def test_cli_list_metrics():
    r = _cli("list-metrics")
    assert r.returncode == 0
    assert "poincare-disk" in r.stdout
    assert "bergman-ball" in r.stdout


def test_cli_plot(tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(FAST_TORUS))
    out = tmp_path / "out"
    assert _cli("run", str(cfg), "-o", str(out)).returncode == 0
    r = _cli("plot", str(out / "t"))
    assert r.returncode == 0
    svgs = list((out / "t" / "plots").glob("*.svg"))
    assert svgs
    assert "<svg" in svgs[0].read_text()


ONE_PHASE_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="100">\n'
    '<rect width="200" height="100" fill="white"/>\n'
    '<polyline points="10.00,90.00 190.00,10.00" fill="none" '
    'stroke="#1f6fb2" stroke-width="1.5"/>\n'
    '<line x1="10" y1="90" x2="190" y2="90" stroke="black"/>\n'
    '<line x1="10" y1="10" x2="10" y2="90" stroke="black"/>\n'
    '<text x="100" y="20" text-anchor="middle" font-family="monospace" '
    'font-size="14">q</text>\n'
    '<text x="10" y="110" font-family="monospace" font-size="11">0.0</text>\n'
    '<text x="190" y="110" text-anchor="end" font-family="monospace" '
    'font-size="11">1.0</text>\n'
    '<text x="5" y="90" text-anchor="end" font-family="monospace" '
    'font-size="11">1.0</text>\n'
    '<text x="5" y="15" text-anchor="end" font-family="monospace" '
    'font-size="11">3.0</text>\n'
    '</svg>')


def test_svg_line_plot_one_phase_bytes_are_pinned():
    """A run whose clock only rises plots as one polyline, byte for byte as
    before plots split at a restarted clock; a blank value is skipped."""
    assert svg_line_plot([0.0, 0.5, 1.0], [1.0, "", 3.0], "q", width=200,
                         height=100, margin=10) == ONE_PHASE_SVG


def test_plot_two_phase_run_draws_one_polyline_per_phase(tmp_path):
    """run.csv holds phase 1's rows in t, then phase 2's in s from 0: each
    phase is its own polyline, so no segment runs from t = phase1_t back to
    s = 0."""
    cfg = {"scenario_name": "two", "kind": "two-phase-normalized",
           "metrics": {"h": "poincare-disk"},
           "chart": {"grid_resolution": 16, "r_max": 0.5},
           "flow": {"initial": "poincare", "boundary": "exact-homothety",
                    "order": 4, "phase1_t": 0.2, "s_max": 0.5,
                    "frame_dt": 0.25},
           "checks": []}
    SC.run_scenario(cfg, str(tmp_path))
    run_dir = tmp_path / "two"
    rows = read_run_csv(str(run_dir / "run.csv"))
    phase = np.cumsum([0] + [b["time"] < a["time"]
                             for a, b in zip(rows, rows[1:])])
    assert phase[-1] == 1
    written = plot_run_csv(str(run_dir))
    counts = []
    for path in written:
        col = os.path.basename(path)[:-len(".svg")]
        phases = {p for p, r in zip(phase, rows)
                  if isinstance(r.get(col), float)}
        with open(path) as f:
            lines = [ln for ln in f if ln.startswith("<polyline")]
        assert len(lines) == len(phases)
        counts.append(len(lines))
        for ln in lines:      # x rises along each polyline
            xs = [float(p.split(",")[0])
                  for p in ln.split('points="')[1].split('"')[0].split()]
            assert xs == sorted(xs)
    assert 2 in counts


def test_cli_verify_exit_codes(tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(FAST_TORUS))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"scenarios": ["t.json"]}))
    r = _cli("verify", str(manifest), "-o", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    r2 = _cli("verify", str(tmp_path / "nothere.json"), "-o",
              str(tmp_path / "out2"))
    assert r2.returncode == 2


def test_normalized_kinds_honour_min_eig_floor(tmp_path):
    """flat-disk-normalized decays as e^-s; with floor 0.9 it must break
    down (near s = 0.105) instead of passing."""
    cfg = json.load(open(os.path.join(SC.bundled_scenario_dir(),
                                      "flat-disk-normalized.json")))
    cfg["flow"]["min_eig_floor"] = 0.9
    p = tmp_path / "floor.json"
    p.write_text(json.dumps(cfg))
    r = _cli("run", str(p), "-o", str(tmp_path / "o"))
    assert r.returncode == 3, r.stderr
    report = json.load(open(tmp_path / "o" / cfg["scenario_name"] / "report.json"))
    assert report["broken"] is True
    assert "floor" in report["breakdown"]


def _manifest(tmp_path, configs):
    names = []
    for cfg in configs:
        names.append(cfg["scenario_name"] + ".json")
        (tmp_path / names[-1]).write_text(json.dumps(cfg))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"scenarios": names}))
    return str(m)


def test_verify_all_reports_a_raising_check_as_a_row(tmp_path):
    """bumpy-torus with frame_dt == t_max leaves two frames, and its
    scalar-evolution check raises; the suite goes on and exits 1."""
    bumpy = json.load(open(os.path.join(SC.bundled_scenario_dir(),
                                        "bumpy-torus.json")))
    bumpy["flow"]["frame_dt"] = bumpy["flow"]["t_max"]
    code, master = SC.verify_all(_manifest(tmp_path, [bumpy, FAST_TORUS]),
                                 str(tmp_path / "out"))
    assert code == 1
    err = [r for r in master["rows"] if r["check"] == "(error)"]
    assert len(err) == 1 and err[0]["scenario"] == "bumpy-torus.json"
    assert "need at least three frames" in err[0]["detail"]
    assert [r["pass"] for r in master["rows"] if r["scenario"] == "t"] == [True]
    assert (tmp_path / "out" / "master_table.json").exists()


def test_cli_run_reports_a_raising_check_without_traceback(tmp_path):
    """`crflow run` prints a check's exception as one error line and exits
    1, as `crflow verify` lists it as an "(error)" row."""
    bumpy = json.load(open(os.path.join(SC.bundled_scenario_dir(),
                                        "bumpy-torus.json")))
    bumpy["flow"]["frame_dt"] = bumpy["flow"]["t_max"]
    p = tmp_path / "bumpy.json"
    p.write_text(json.dumps(bumpy))
    r = CliRunner().invoke(main, ["run", str(p), "-o", str(tmp_path / "o")])
    assert r.exit_code == 1
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "error: ValueError: need at least three frames" in r.output
    assert "Traceback" not in r.output


def test_verify_all_breakdown_in_a_check_exits_three(tmp_path, monkeypatch):
    def broken_check(cfg, result):
        raise FlowBreakdownError(0.5, "radial", "re-run lost positivity")

    monkeypatch.setitem(SC.CHECKS, "flat-stationarity",
                        (("torus",), broken_check))
    code, master = SC.verify_all(_manifest(tmp_path, [FAST_TORUS]),
                                 str(tmp_path / "out"))
    assert code == 3
    assert master["rows"][0]["check"] == "(error)"
    assert master["rows"][0]["detail"].startswith("FlowBreakdownError")


# ---------------------------------------------------------------------------
# the reference metric h, frame gaps and report names
# ---------------------------------------------------------------------------

def _trace_identity(h, frame_dt):
    """A 96-node order-6 homothety to t = 0.02 with its trace-identity
    report, h the config's reference metric."""
    return SC.run_scenario({
        "scenario_name": "ti", "kind": "radial", "metrics": {"h": h},
        "chart": {"grid_resolution": 96, "r_max": 0.8},
        "flow": {"initial": "poincare", "boundary": "exact-homothety",
                 "order": 6, "t_max": 0.02, "frame_dt": frame_dt},
        "checks": ["trace-identity"]})["checks"][0]


def test_trace_identity_skips_the_short_last_frame_gap():
    """frame_dt 0.003 leaves a last gap of 0.002 before t_max = 0.02; a
    centered difference across it was 3.6e-3 off, failing the check.  Over
    the equal gaps the residual is the O(frame_dt^2) one, (3/2)^2 times that
    at frame_dt 0.002."""
    coarse, fine = _trace_identity("poincare-disk", 0.003), \
        _trace_identity("poincare-disk", 0.002)
    assert coarse["satisfied"] and coarse["samples"] == 5
    ratio = coarse["extra"]["max_residual"] / fine["extra"]["max_residual"]
    assert 1.5 < ratio < 3.0


def test_hyperbolic_ke_trace_identity_reads_its_own_h():
    """With h = 2 (1 - r^2)^-2, Lambda = tr_g h and every term of the
    identity are twice those of the factor-1 Poincare h, so the residual is
    too; the identity once read the factor-1 metric for either key.  The
    residual relative to sup Lambda is the same for both, up to the rounding
    of a residual that cancels far larger terms."""
    ke = _trace_identity("hyperbolic-ke", 0.002)["extra"]
    pd = _trace_identity("poincare-disk", 0.002)["extra"]
    assert ke["max_residual"] == pytest.approx(2.0 * pd["max_residual"],
                                               rel=1e-6)
    assert ke["relative_residual"] == pytest.approx(pd["relative_residual"],
                                                    rel=1e-6)
    r = np.linspace(0.0, 0.9, 7)
    np.testing.assert_array_equal(SC.H_METRICS["hyperbolic-ke"][0](r),
                                  2.0 / (1.0 - r**2) ** 2)


@pytest.mark.parametrize("kind, h", [("torus", "poincare-disk"),
                                     ("radial", "bergman-ball")])
def test_config_rejects_an_h_that_does_not_fit_the_kind(kind, h):
    """An h with no radial profile, or a curved h on the flat torus, is a
    ConfigError at load time, not mid-run."""
    bad = json.loads(json.dumps(FAST_TORUS if kind == "torus" else FAST_RADIAL))
    bad["metrics"]["h"] = h
    with pytest.raises(ConfigError) as ei:
        SC.load_config(bad)
    assert len(ei.value.violations) == 1
    assert ei.value.violations[0].startswith("metrics.h ")
    assert repr(h) in ei.value.violations[0]


def test_master_rows_are_named_after_the_configured_checks(tmp_path):
    """Each master row's check is the config's check name (or a "(...)" row):
    scalar-evolution on the torus and ke-expected-divergence were listed
    under the names of the estimate functions behind them."""
    bumpy = json.loads(json.dumps(FAST_TORUS))
    bumpy.update(scenario_name="bumpy", checks=["scalar-evolution"])
    bumpy["flow"].update(initial="bumpy", perturbation_amplitude=0.05)
    flat = {"scenario_name": "flat", "kind": "radial-normalized",
            "metrics": {"h": "euclidean"},
            "chart": {"grid_resolution": 32, "r_max": 0.9},
            "flow": {"initial": "flat", "s_max": 1.0, "frame_dt": 0.1},
            "checks": ["ke-expected-divergence", "potential-monotonicity"]}
    bad = dict(FAST_RADIAL, scenario_name="bad", metrics={"h": "bergman-ball"})
    configs = [bumpy, flat, FAST_RADIAL, bad]
    code, master = SC.verify_all(_manifest(tmp_path, configs),
                                 str(tmp_path / "out"))
    assert code == 2
    names = {c for cfg in configs for c in cfg["checks"]}
    for row in master["rows"]:
        assert row["check"] in names or (row["check"].startswith("(")
                                         and row["check"].endswith(")"))
    assert [r["check"] for r in master["rows"]] == [
        "scalar-evolution", "ke-expected-divergence", "potential-monotonicity",
        "exact-homothety-tracking", "(config)"]
