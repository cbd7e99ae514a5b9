"""Experiment runner: executes the probes of a config and writes artifacts.

Layout under the output directory: reports/ (JSON, schema-tagged),
tables/ (CSV), plotdata/ (whitespace-delimited columns), each file named
<probe>-<target>-<seed>, the target the one _target names whether the
probe runs or raises; a stem already in use takes the first free
suffix -k, k counting up from the number of stems written.  All artifact
bytes are a pure function of the config; wall-clock metadata lives only
in the run-meta.json sidecar.  Each executor's pass/fail gate is a
constant of its own (of the library check it calls, for measure-classify,
invariance and classification) and its report prints it; no config
field sets one.
run is execute_probes, probe_report per result and run_status; the CLI's
one-probe runs call the same three, so a twin command prints the bytes
of reports/<stem>.json.

Exit status: 0 when every exact-grade check passed, 1 when one failed,
2 when a probe raised (partial failure; the report carries the error).
Deliberate negative controls (a non-unimodular transport, a broken
sampler) are graded exact because their failure margin is macroscopic,
not a statistical wobble, so a control that fails flips the exit status.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import circle_measure as cm
from . import dynamics_lab as lab
from . import gauss_model as gm
from . import hitting_sets as hs
from .config import ExperimentConfig
from .corpora import probability_measure, random_functional, scaffold_set
from .jsonio import csv_text, read_json, write_json
from .kalish import (CircleFunction, apply_T, apply_T_array, eigen_residual,
                     kalish_matrix)
from .seeding import derive_seed

__all__ = ["execute_probes", "probe_report", "realize_measure", "run",
           "run_status"]

REPORT_SCHEMA = "probe-report/1"
SUMMARY_SCHEMA = "run-summary/1"
META_SCHEMA = "run-meta/1"


@dataclass(frozen=True)
class ProbeResult:
    """One probe's outcome; execute_probes names its probe and _target."""

    passed: bool
    grade: str
    detail: dict
    table: str = ""
    plotdata: str = ""
    control: str = ""
    error: str = ""
    probe: str = ""
    target: str = ""


def realize_measure(defn: dict) -> cm.CircleMeasure:
    kind = defn["kind"]
    if kind == "uniform":
        return cm.CircleMeasure.uniform(defn["mass"], bins=defn["bins"])
    if kind == "dirac":
        return cm.CircleMeasure.dirac(defn["angle"], defn["mass"], bins=defn["bins"])
    if kind == "atoms":
        return cm.CircleMeasure.from_parts(defn["bins"], atoms=defn["atoms"])
    if kind == "probability":
        return probability_measure(defn["seed"], defn["bins"])
    if kind == "file":
        return cm.CircleMeasure.from_dict(read_json(defn["path"]))
    return cm.CircleMeasure.from_dict(defn["doc"])


@dataclass
class _RunContext:
    config: ExperimentConfig
    systems: dict  # label -> SystemSpec, in config order
    _measures: dict = field(default_factory=dict)
    _models: dict = field(default_factory=dict)

    def measure(self, name: str) -> cm.CircleMeasure:
        if name not in self._measures:
            self._measures[name] = realize_measure(self.config.measures[name])
        return self._measures[name]

    def model(self, measure_name: str, nodes: int, grid: int) -> gm.GaussModel:
        key = (measure_name, nodes, grid)
        if key not in self._models:
            fld = gm.corrected_field(self.measure(measure_name), nodes, grid)
            self._models[key] = gm.build_model(fld)
        return self._models[key]


def _columns(header, rows) -> str:
    lines = ["# " + " ".join(header)]
    for row in rows:
        lines.append(" ".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def scaled_transport(scale: float):
    """The true dynamics followed by a scalar stretch: non-unimodular for
    scale != 1, so the pushforward inflates the covariance by scale^2."""

    def transport(X: np.ndarray) -> np.ndarray:
        out = apply_T_array(X)
        out *= scale
        return out

    return transport


def _band(mu: cm.CircleMeasure, n_max: int) -> list:
    """fourier_band as Python complex numbers, so every derived cell and
    JSON field keeps its float formatting."""
    return cm.fourier_band(mu, n_max).tolist()


def _band_check(got: cm.CircleMeasure, want: list, band: int, tolerance: float,
                names: tuple, **detail) -> ProbeResult:
    """The one check of the convolve and exp probes: got's Fourier band
    against the oracle coefficients want, for n = -band..band, each within
    the caller's tolerance."""
    rows = [(n, g.real, g.imag, w.real, w.imag, abs(g - w))
            for n, g, w in zip(range(-band, band + 1), _band(got, band), want)]
    worst = max(0.0, *(r[5] for r in rows))
    detail.update(max_error=worst, tolerance=tolerance, band=band,
                  result_mass=cm.total_mass(got))
    return ProbeResult(
        passed=worst <= tolerance, grade="exact", detail=detail,
        table=csv_text(["n", *(f"{k}_{part}" for k in names for part in ("re", "im")),
                        "abs_error"], rows),
        plotdata=_columns(["n", "abs_error"], [(r[0], r[5]) for r in rows]))


def _run_convolve(ctx: _RunContext, p: dict) -> ProbeResult:
    mu, nu = ctx.measure(p["left"]), ctx.measure(p["right"])
    conv = cm.convolve(mu, nu)
    want = [a * b for a, b in zip(_band(mu, p["band"]), _band(nu, p["band"]))]
    return _band_check(conv, want, p["band"], 5e-3, ("conv", "product"),
                       result_atoms=conv.atom_count)


def _run_exp(ctx: _RunContext, p: dict) -> ProbeResult:
    rho = ctx.measure(p["measure"])
    ex = cm.exp_measure(rho, tail_tol=p["tail_tol"])
    want = [cmath.exp(c) for c in _band(rho, p["band"])]
    return _band_check(ex, want, p["band"], 1e-5, ("exp", "want"),
                       tail_tol=p["tail_tol"],
                       order=cm.truncation_order(p["tail_tol"]))


def _run_fourier(ctx: _RunContext, p: dict) -> ProbeResult:
    band = p["band"]
    rows = [(n, c.real, c.imag, abs(c)) for n, c in
            zip(range(-band, band + 1), _band(ctx.measure(p["measure"]), band))]
    detail = {"band": band, "coefficients": [[r[0], r[1], r[2]] for r in rows]}
    return ProbeResult(
        passed=True, grade="exact", detail=detail,
        table=csv_text(["n", "re", "im", "abs"], rows),
        plotdata=_columns(["n", "abs"], [(r[0], r[3]) for r in rows]))


def _run_measure_classify(ctx: _RunContext, p: dict) -> ProbeResult:
    rho, band = ctx.measure(p["measure"]), p["band"]
    raj = cm.rajchman_probe(rho, n_max=band)
    diri = cm.dirichlet_probe(rho, n_max=band)
    mild = cm.mild_mixing_probe(rho, family_size=p["family_size"], n_max=band,
                                seed=p["seed"])
    detail = {"rajchman": raj.to_dict(), "dirichlet": diri.to_dict(),
              "mild_mixing": mild.to_dict()}
    rows = [("rajchman", raj.passed, raj.tail_sup),
            ("dirichlet", diri.passed, diri.best_value),
            ("mild_mixing", mild.passed, mild.worst_limsup)]
    spectrum = [(n, abs(c)) for n, c in enumerate(_band(rho, band)[band + 1:], 1)]
    return ProbeResult(
        passed=True, grade="heuristic", detail=detail,
        table=csv_text(["probe", "passed", "statistic"], rows),
        plotdata=_columns(["n", "abs_coefficient"], spectrum))


def t1_error(M: int) -> float:
    """max |T1 - 1| on the M-grid (T fixes the constant 1 to first order)."""
    return float(np.max(np.abs(apply_T(CircleFunction.constant(1.0, M)).values - 1.0)))


def _run_residual(ctx: _RunContext, p: dict) -> ProbeResult:
    # (lambda, grid, eigen residual, ratio to the previous grid's or nan)
    rows = []
    for lam in p["angles"]:
        prev = None
        for M in p["grids"]:
            r = eigen_residual(lam, M)
            rows.append((lam, M, r, r / prev if prev is not None else float("nan")))
            prev = r
    ratio_bound = 0.75  # each refinement must shrink the residual this much
    ratios_ok = not any(row[3] > ratio_bound for row in rows)
    t1_rows = [(M, t1_error(M), 50.0 / M) for M in p["grids"]]
    t1_ok = all(err <= bound for _, err, bound in t1_rows)
    detail = {"ratio_bound": ratio_bound, "ratios_ok": ratios_ok,
              "t1_ok": t1_ok,
              "t1_errors": [[int(m), e, b] for m, e, b in t1_rows],
              "residuals": [[la, int(m), r]
                            for la, m, r, _ in rows]}
    return ProbeResult(
        passed=ratios_ok and t1_ok, grade="exact", detail=detail,
        table=csv_text(["lambda", "grid", "residual", "ratio"], rows),
        plotdata=_columns(["lambda", "grid", "residual"],
                          [(la, m, r) for la, m, r, _ in rows]))


def _run_matrix_check(ctx: _RunContext, p: dict) -> ProbeResult:
    # apply_T against the dense matrix, then a dense solve back, per vector
    M, apply_tolerance, solve_tolerance = ctx.config.grid, 1e-12, 1e-6
    T = kalish_matrix(M)
    rows = []
    for k in range(5):
        rng = np.random.default_rng(derive_seed(ctx.config.seed, f"matrix-check:{k}"))
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        via_matrix = T @ v
        via_operator = apply_T(CircleFunction(v.copy(), M)).values
        recovered = np.linalg.solve(T, via_matrix)
        rows.append((k, float(np.max(np.abs(via_matrix - via_operator))),
                     float(np.max(np.abs(recovered - v)) / max(1.0, np.max(np.abs(v))))))
    worst_apply = max(r[1] for r in rows)
    worst_solve = max(r[2] for r in rows)
    detail = {"grid": M, "trials": len(rows), "max_apply_difference": worst_apply,
              "max_solve_error": worst_solve, "apply_tolerance": apply_tolerance,
              "solve_tolerance": solve_tolerance}
    return ProbeResult(
        passed=worst_apply <= apply_tolerance and worst_solve <= solve_tolerance,
        grade="exact", detail=detail,
        table=csv_text(["trial", "apply_difference", "solve_error"], rows),
        plotdata=_columns(["trial", "apply_difference", "solve_error"], rows))


def _run_invariance(ctx: _RunContext, p: dict) -> ProbeResult:
    # scale 1 runs the true dynamics, any other scale the control
    model, scale = ctx.model(p["measure"], p["nodes"], p["grid"]), p["transport_scale"]
    control = "" if scale == 1.0 else "non-unimodular-transport"
    rep = gm.invariance_check(model, scaled_transport(scale) if control else None,
                              count=p["samples"], seed=p["seed"])
    detail = dict(rep.to_dict(), transport_scale=scale, nodes=p["nodes"],
                  grid=p["grid"], measure=p["measure"])
    if control:
        detail["control"] = control
    rows = [(name, getattr(rep, name)) for name in
            ("cov_distance", "exact_distance", "budget", "intertwine", "samples")]
    nodes = [(float(a), float(w)) for a, w in zip(model.angles, model.weights)]
    return ProbeResult(
        passed=rep.passed, grade="exact" if control else "statistical",
        detail=detail, control=control,
        table=csv_text(["metric", "value"], rows),
        plotdata=_columns(["angle", "weight"], nodes))


def _run_symmetry(ctx: _RunContext, p: dict) -> ProbeResult:
    model = ctx.model(p["measure"], p["nodes"], p["grid"])
    rows, reports = [], []
    for k in range(p["functionals"]):
        xstar = random_functional(derive_seed(p["seed"], f"functional:{k}"), p["grid"])
        rep = gm.symmetry_check(model, xstar, p["samples"],
                                derive_seed(p["seed"], f"draw:{k}"), p["sampler"])
        reports.append(rep.to_dict())
        rows.append((k, rep.second_moment.real, rep.second_moment.imag,
                     rep.second_moment_threshold, rep.re_im_correlation,
                     rep.passed))
    control = "real-gaussian-sampler" if p["sampler"] == "real" else ""
    passed = all(r["passed"] for r in reports)
    detail = {"functionals": reports, "sampler": p["sampler"],
              "samples": p["samples"], "measure": p["measure"]}
    if control:
        detail["control"] = control
    return ProbeResult(
        passed=passed, grade="exact" if control else "statistical",
        detail=detail, control=control,
        table=csv_text(["functional", "pseudo_moment_re", "pseudo_moment_im",
                        "threshold", "re_im_correlation", "passed"], rows),
        plotdata=_columns(["functional", "abs_pseudo_moment"],
                          [(r[0], math.hypot(r[1], r[2])) for r in rows]))


def _run_coeff(ctx: _RunContext, p: dict) -> ProbeResult:
    model = ctx.model(p["measure"], p["nodes"], p["grid"])
    rel_tol = 0.05  # the relative agreement every estimate pair must reach
    rows, all_ok = [], True
    for k in range(p["functionals"]):
        xstar = random_functional(derive_seed(p["seed"], f"functional:{k}"),
                                  p["grid"])
        for n, a, mc, sf in gm.coefficient_rows(model, xstar, p["max_power"],
                                                p["samples"], p["seed"],
                                                f"mc:{k}:"):
            ref = max(abs(a), abs(mc.value), abs(sf))
            budget = rel_tol * ref + 3.0 * mc.standard_error
            ok = (abs(mc.value - a) <= budget
                  and abs(sf - a) <= rel_tol * ref + 1e-12
                  and abs(mc.value - sf) <= budget)
            all_ok = all_ok and ok
            rows.append((k, n, a.real, a.imag, mc.value.real, mc.value.imag,
                         mc.standard_error, sf.real, sf.imag, ok))
    detail = {"functionals": p["functionals"], "max_power": p["max_power"],
              "samples": p["samples"], "rel_tol": rel_tol,
              "measure": p["measure"], "agreements": len(rows),
              "all_ok": all_ok}
    plot = [(r[1], math.hypot(r[2], r[3]), math.hypot(r[4], r[5]))
            for r in rows if r[0] == 0]
    return ProbeResult(
        passed=all_ok, grade="statistical", detail=detail,
        table=csv_text(["functional", "n", "analytic_re", "analytic_im",
                        "mc_re", "mc_im", "mc_se", "spectral_re", "spectral_im",
                        "ok"], rows),
        plotdata=_columns(["n", "abs_analytic", "abs_mc"], plot))


def _run_ubd(ctx: _RunContext, p: dict) -> ProbeResult:
    bound = math.ceil(2.0 / p["delta"])
    rows, all_ok = [], True
    for k in range(p["count"]):
        L = scaffold_set(derive_seed(p["seed"], f"set:{k}"),
                         p["window"], p["delta"])
        dens = hs.upper_banach_density(L, p["min_len"])
        gap = hs.max_gap(hs.difference_set(L))
        ok = dens >= p["delta"] and gap <= bound
        all_ok = all_ok and ok
        rows.append((k, L.size, dens, gap, ok))
    detail = {"delta": p["delta"], "gap_bound": bound, "count": p["count"],
              "window": p["window"], "min_len": p["min_len"],
              "all_ok": all_ok}
    return ProbeResult(
        passed=all_ok, grade="exact", detail=detail,
        table=csv_text(["set", "size", "banach_density", "diff_max_gap", "ok"],
                       rows),
        plotdata=_columns(["set", "diff_max_gap"],
                          [(r[0], r[3]) for r in rows]))


def _run_orbit(ctx: _RunContext, p: dict) -> ProbeResult:
    spec = ctx.systems[p["system"]]
    x0 = lab.default_start(spec, p["seed"])
    traj = lab.orbit_rows(spec, x0, p["steps"], centers=[0])
    norms, dist = traj.norm_row, traj.rows[0]
    radius = lab.ball_radius(dist[1:]) if traj.length > 1 else 1.0
    radius = max(radius, 1e-12)
    hits = hs.WindowedSet.from_mask(dist < radius)
    gap = hs.max_gap(hs.difference_set(hits)) if hits.size else None
    detail = {"system": spec.label, "steps": p["steps"],
              "norm_min": float(norms.min()), "norm_max": float(norms.max()),
              "ball_radius": radius, "hit_count": hits.size,
              "hit_diff_max_gap": gap}
    rows = [(t, float(norms[t]), float(dist[t])) for t in range(traj.length)]
    return ProbeResult(
        passed=True, grade="exact", detail=detail,
        table=csv_text(["step", "norm", "distance_to_start"], rows),
        plotdata=_columns(["step", "norm", "distance_to_start"], rows))


def _run_classification(ctx: _RunContext, p: dict) -> ProbeResult:
    report = lab.classification_run(list(ctx.systems.values()), window=p["window"],
                                    seed=ctx.config.seed,
                                    mc_samples=p["samples"])
    verdict_num = {"yes": 1, "no": 0, "no-evidence": -1}
    plot_rows = []
    for i, row in enumerate(report.rows):
        plot_rows.append([i] + [verdict_num[row.outcomes[c].verdict]
                                for c in lab.PROBE_COLUMNS])
    return ProbeResult(
        passed=not report.flagged, grade="exact", detail=report.to_dict(),
        table=report.to_csv(),
        plotdata=_columns(["system"] + list(lab.PROBE_COLUMNS), plot_rows))


_EXECUTORS = {
    "convolve": _run_convolve,
    "exp": _run_exp,
    "fourier": _run_fourier,
    "measure-classify": _run_measure_classify,
    "residual": _run_residual,
    "matrix-check": _run_matrix_check,
    "invariance": _run_invariance,
    "symmetry": _run_symmetry,
    "coeff": _run_coeff,
    "ubd": _run_ubd,
    "orbit": _run_orbit,
    "classification": _run_classification,
}


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", text) or "x"


def _target(p: dict) -> str:
    """What a probe checks, named in its report and artifact stem whether
    it runs or raises: its measure or system, else a fixed name."""
    kind = p["probe"]
    if kind == "convolve":
        return f"{p['left']}x{p['right']}"
    if kind == "ubd":
        return f"delta-{p['delta']}"
    if kind == "classification":
        return "battery"
    return p.get("measure") or p.get("system") or "kalish"


def execute_probes(config: ExperimentConfig) -> list:
    """The ProbeResult of every probe of the config, in order.  A probe
    that raises gives a failed exact-grade result carrying the error."""
    ctx = _RunContext(config, {s.label: s for s in lab.parse_systems(config.systems)})
    results = []
    for probe in config.probes:
        try:
            result = _EXECUTORS[probe["probe"]](ctx, probe)
        except Exception as exc:  # noqa: BLE001 - per-probe diagnostics
            result = ProbeResult(passed=False, grade="exact", detail={},
                                 error=f"{type(exc).__name__}: {exc}")
        results.append(replace(result, probe=probe["probe"], target=_target(probe)))
    return results


def probe_report(res: ProbeResult, seed: int) -> dict:
    """The probe-report/1 document of one result."""
    doc = {"schema": REPORT_SCHEMA, "probe": res.probe,
           "target": res.target, "seed": seed,
           "grade": res.grade, "passed": res.passed,
           "detail": res.detail}
    if res.control:
        doc["control"] = res.control
    if res.error:
        doc["error"] = res.error
    return doc


def run_status(results: list) -> int:
    """2 when a probe raised, else 1 when an exact-grade check failed, else 0."""
    if any(r.error for r in results):
        return 2
    return 1 if any(r.grade == "exact" and not r.passed for r in results) else 0


def run(config: ExperimentConfig, out_dir=None) -> int:
    """Execute every probe of the config and write the artifact tree."""
    root = Path(out_dir if out_dir is not None else config.out)
    for sub in ("reports", "tables", "plotdata"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    results = execute_probes(config)
    used = set()
    for res in results:
        stem = base = f"{res.probe}-{_safe_name(res.target)}-{config.seed}"
        suffix = len(used)
        while stem in used:  # a suffixed stem may be another probe's own
            stem, suffix = f"{base}-{suffix}", suffix + 1
        used.add(stem)
        write_json(root / "reports" / f"{stem}.json", probe_report(res, config.seed))
        if res.table:
            (root / "tables" / f"{stem}.csv").write_text(res.table)
        if res.plotdata:
            (root / "plotdata" / f"{stem}.dat").write_text(res.plotdata)

    status = run_status(results)
    summary = {
        "schema": SUMMARY_SCHEMA, "seed": config.seed, "status": status,
        "probes": [{"probe": r.probe, "target": r.target, "grade": r.grade,
                    "passed": r.passed, "control": r.control,
                    "error": r.error} for r in results],
    }
    write_json(root / "reports" / f"summary-run-{config.seed}.json", summary)
    write_json(root / "run-meta.json", {
        "schema": META_SCHEMA,
        "written_at": datetime.now(timezone.utc).isoformat(),
        "probe_count": len(results),
    })
    return status
