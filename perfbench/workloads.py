"""The four workloads: their inputs, one timed round each, and its checks.

A workload is built once (inputs from the seed; that is part of `setup_s`),
then `run()` does one round of crflow work and returns its outputs, and
`check(outputs)` returns (failed operations, problems) after the timer has
stopped.  `ops` is the number of operations in one round.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

import checks


def bundled_configs(cr):
    """The bundled manifest's path and its scenario documents, as JSON."""
    manifest = cr.scenarios.bundled_manifest()
    base = os.path.dirname(manifest)
    with open(manifest) as f:
        entries = json.load(f)["scenarios"]
    configs = []
    for entry in entries:
        with open(os.path.join(base, entry)) as f:
            configs.append(json.load(f))
    return manifest, configs


class Suite:
    """What `crflow verify` does on the five bundled scenarios, writing the
    artifacts to a fresh directory.  One operation is one scenario."""

    def __init__(self, cr, seed, scratch):
        # the seed enters nothing: the inputs are the bundled scenarios
        self.cr = cr
        self.scratch = scratch
        self.manifest, self.configs = bundled_configs(cr)
        self.ops = len(self.configs)

    def run(self):
        out = tempfile.mkdtemp(prefix="suite-", dir=self.scratch)
        try:
            code, master = self.cr.scenarios.verify_all(self.manifest, out)
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return out, code, master

    def check(self, outputs):
        out, code, master = outputs
        try:
            problems = checks.check_master(code, master)
            failed = 0
            for cfg in self.configs:
                path = os.path.join(out, cfg["scenario_name"], "run.csv")
                if not os.path.exists(path):
                    failed += 1
                    problems.append(f"{cfg['scenario_name']}: no run.csv")
                    continue
                problems += checks.check_scenario_rows(cfg, checks.read_csv_rows(path))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return failed, problems


class Homothety512:
    """Criterion 05's flow: the Poincare homothety on 512 nodes, order 6,
    t in [0, 0.5], frames every 0.05, exact Dirichlet ghosts, safety 4.0 (which
    `cfl_bound` caps at 1.0).  One operation is one checked frame."""

    R_MAX, NODES, T_END, FRAME_DT = 0.8, 512, 0.5, 0.05

    def __init__(self, cr, seed, scratch):
        # the seed enters nothing: criterion 05's arguments are fixed
        self.cr = cr
        self.r = (np.arange(self.NODES) + 0.5) * (self.R_MAX / self.NODES)
        self.times = [k * self.FRAME_DT for k in range(round(self.T_END / self.FRAME_DT) + 1)]
        self.ops = len(self.times)

    def run(self):
        RD = self.cr.radial
        run = RD.run_radial_flow(
            RD.poincare_lambda, self.R_MAX, self.T_END, nodes=self.NODES, order=6,
            safety=4.0, frame_dt=self.FRAME_DT,
            boundary=lambda r, t: RD.homothety_lambda(r, t))
        return run.broken, [f.time for f in run.frames], [f.lam for f in run.frames]

    def check(self, outputs):
        broken, times, lams = outputs
        if broken:
            return self.ops - len(times) + 1, [f"flow broke down after {len(times)} frames"]
        return 0, checks.check_homothety(self.r, times, lams, self.times)


def symmetric_datum(rng, n, max_mode=2, curvature=0.5):
    """A smooth positive datum on the N x N unit torus, symmetric under
    x <-> y, with min lam = 1 and max |Ric/lam| about `curvature`, so that the
    time step sits at 0.2 h^2 min lam and the step count hardly depends on
    the seed."""
    x = np.arange(n) / n
    u = np.zeros((n, n))
    for p in range(max_mode + 1):
        for q in range(max_mode + 1):
            if p == q == 0:
                continue
            a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
            u += rng.standard_normal() * np.outer(np.cos(2 * np.pi * p * x + a),
                                                  np.cos(2 * np.pi * q * x + b))
    u = (u + u.T) / 2.0                       # exactly symmetric
    u -= u.min()
    # ddbar u = lap u / 4; scale so that |ddbar log lam| <= curvature at t = 0
    h = 1.0 / n
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
           + np.roll(u, -1, 1) - 4.0 * u) / h**2
    return np.exp(u * (curvature / np.max(np.abs(lap / 4.0))))


class Torus:
    """Metric-form and potential-form flows of one seeded datum on the
    periodic 128 x 128 grid to t = 0.01, at the default safety 0.2 and frame
    step.  One operation is one flow."""

    N, BOX, T_END = 128, 1.0, 0.01
    ops = 2

    def __init__(self, cr, seed, scratch):
        self.cr = cr
        self.lam0 = symmetric_datum(np.random.default_rng(seed), self.N)

    def run(self):
        run = self.cr.flow.run_torus_flow
        _, frames_m = run(self.lam0, self.BOX, self.T_END, mode="metric")
        _, frames_p = run(self.lam0, self.BOX, self.T_END, mode="potential")
        return frames_m, frames_p

    def check(self, outputs):
        return 0, checks.check_torus(*outputs, self.T_END)


def ring_points(rng, radii, per_ring):
    pts = []
    for rad in radii:
        for _ in range(per_ring):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pts.append(w / np.linalg.norm(w) * rad)
    return np.array(pts)


class Pointwise:
    """The pointwise kernels, no flow: the frakF property sweep (k <= 4),
    frakF on a finer sweep, the conformal completion, hsc_max and the Royden
    check on the Bergman ball, and the nabla-bar torsion norm on the torsion
    example.  One operation is one kernel evaluation.

    A round is sized to about half a second, so that a run's `wall_s` is the
    median of some forty rounds: on a shared machine one round's time can
    differ from the next by a factor of two, and the median of four or five
    longer rounds did not settle."""

    PROPERTY_SWEEP_POINTS = 400
    VALUE_SWEEP_POINTS = 4000
    COMPLETION_RADII = (1.12, 1.19)
    COMPLETION_PER_RING = 1
    HSC_POINTS = 2
    ROYDEN_SAMPLES = 20
    TORSION_POINTS = 1

    def __init__(self, cr, seed, scratch):
        self.cr = cr
        M, CO = cr.metrics, cr.cutoff
        rng = np.random.default_rng(seed)
        self.tau = float(rng.uniform(0.04, 0.06))
        self.spec = CO.CutoffSpec(tau=self.tau)
        self.sweep = np.linspace(0.0, 1.0 - self.tau / 64.0,
                                 self.VALUE_SWEEP_POINTS)
        self.g0 = M.conformal_metric(M.euclidean(2), M.radial_quadratic_field(0.15))
        self.h = M.euclidean(2)
        self.completion = CO.CompletionSpec(rho=M.rho_one_plus_sq(), rho_i=2.5,
                                            cutoff=CO.CutoffSpec(tau=0.1))
        self.completion_pts = ring_points(rng, self.COMPLETION_RADII,
                                          self.COMPLETION_PER_RING)
        self.bergman = M.bergman_ball(2)
        self.hsc_pts = ring_points(rng, [0.4], self.HSC_POINTS)
        self.royden = []
        for _ in range(self.ROYDEN_SAMPLES):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= rng.uniform(0.0, 0.7) / max(np.linalg.norm(z), 1e-12)
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            self.royden.append((A @ A.conj().T + 0.05 * np.eye(2), z))
        self.torsion = M.torsion_example()
        self.torsion_pts = ring_points(rng, [0.5], self.TORSION_POINTS)
        # the property sweep, frakF on the sweep, the completion, then one
        # operation per point or sample
        self.ops = 3 + self.HSC_POINTS + self.ROYDEN_SAMPLES + self.TORSION_POINTS

    def run(self):
        CO, CU = self.cr.cutoff, self.cr.curvature
        royden_check = self.cr.traces.royden_check
        sweep_rep = CO.frakF_properties_check(
            self.spec, 4, sweep_points=self.PROPERTY_SWEEP_POINTS)
        frak = CO.FrakF(self.spec).value(self.sweep)
        _, _, completion_rep = CO.conformal_completion(
            self.g0, self.h, self.completion, self.completion_pts, kappa0=0.0,
            hsc_samples=256)
        kappas = [CU.hsc_max(self.bergman, z, samples=512, seed=0).kappa
                  for z in self.hsc_pts]
        slacks = [royden_check(G, self.bergman, z, -2.0, -2.0)[2]
                  for G, z in self.royden]
        norms = [CU.nabla_bar_torsion_norm(self.torsion, z, seed=0)
                 for z in self.torsion_pts]
        return sweep_rep, frak, completion_rep, kappas, slacks, norms

    def check(self, outputs):
        sweep_rep, frak, completion_rep, kappas, slacks, norms = outputs
        problems = []
        if not sweep_rep.satisfied:
            problems.append("frakF property sweep not satisfied")
        if not (completion_rep.satisfied
                and np.isfinite(completion_rep.extra["c_calibrated"])):
            problems.append("conformal completion bounds not calibrated")
        problems += checks.check_frakF(self.sweep, frak, self.tau)
        problems += checks.check_hsc(kappas)
        problems += checks.check_royden(slacks)
        problems += checks.check_finite_positive("torsion norm", norms)
        return 0, problems


WORKLOADS = {"suite": Suite, "homothety-512": Homothety512, "torus": Torus,
             "pointwise": Pointwise}
