"""Command-line surface: one binary, subcommand style.

Subcommands: measure conv|pow|exp|fourier|classify, kalish
apply|residual|matrix-check, gauss build|sample|invariance|coeff, hits
density|ubd|diff|gaps, lab orbit|classify, run <config>.  Global flags
--seed, --bins, --grid, --out, --format json|csv work before or after
the subcommand.  Configs are the source of truth for experiments; the
flags cover one-off exploration.

Measure arguments accept a path to a circle-measure JSON document or a
token: "uniform", "dirac:ANGLE[:MASS]", "probability[:SEED]".  System
arguments accept a path to a system JSON document or a token:
"kalish[:M]", "scalar-shift[:C[:DIM]]", "torus[:A:B...]".  Set
arguments accept a windowed-set JSON document or a newline-delimited
integer orbit log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import circle_measure as cm
from . import dynamics_lab as lab
from . import gauss_model as gm
from . import hitting_sets as hs
from . import kalish as ka
from .config import PROBE_FIELDS, TOP_DEFAULTS, parse_config
from .corpora import probability_measure, random_functional
from .jsonio import csv_text, read_json, stable_dumps
from .runner import (
    fourier_rows,
    invariance_report,
    measure_classification,
    residual_rows,
    run as run_experiment,
)
from .seeding import derive_seed

__all__ = ["main"]

_GLOBAL_DEFAULTS = {**TOP_DEFAULTS, "out": None, "format": "json"}


# -- input loaders ------------------------------------------------------


def _load_measure(token: str, bins: int, seed: int) -> cm.CircleMeasure:
    if token == "uniform":
        return cm.CircleMeasure.uniform(1.0, bins=bins)
    if token.startswith("dirac:"):
        parts = token.split(":")[1:]
        angle = float(parts[0])
        mass = float(parts[1]) if len(parts) > 1 else 1.0
        return cm.CircleMeasure.dirac(angle, mass, bins=bins)
    if token == "probability" or token.startswith("probability:"):
        parts = token.split(":")[1:]
        use = int(parts[0]) if parts else seed
        return probability_measure(use, bins)
    return cm.CircleMeasure.from_dict(read_json(token))


def _load_function(token: str, grid: int) -> ka.CircleFunction:
    if token == "one":
        return ka.CircleFunction.constant(1.0, grid)
    if token.startswith("chi:"):
        return ka.chi(float(token.split(":")[1]), grid)
    return ka.CircleFunction.from_dict(read_json(token))


def _load_system(token: str, grid: int) -> lab.SystemSpec:
    if token == "kalish" or token.startswith("kalish:"):
        parts = token.split(":")[1:]
        return lab.kalish_system(int(parts[0]) if parts else grid)
    if token == "scalar-shift" or token.startswith("scalar-shift:"):
        parts = token.split(":")[1:]
        scalar = float(parts[0]) if parts else 2.0
        dim = int(parts[1]) if len(parts) > 1 else 160
        return lab.scalar_shift_system(scalar, dim)
    if token.startswith("torus:"):
        angles = tuple(float(a) for a in token.split(":")[1:])
        return lab.torus_system(angles)
    return lab.SystemSpec.from_dict(read_json(token))


def _load_set(path: str) -> hs.WindowedSet:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return hs.WindowedSet.from_dict(json.loads(text))
    return hs.WindowedSet.from_lines(text)


# -- output helpers -----------------------------------------------------


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list):
        rows.append((prefix, json.dumps(value)))
    else:
        rows.append((prefix, value))


def _doc_csv(doc: dict) -> str:
    rows: list = []
    _flatten("", doc, rows)
    return csv_text(["field", "value"], rows)


def _measure_csv(m: cm.CircleMeasure) -> str:
    rows = [("atom", float(a), float(mass)) for a, mass in m.atoms()]
    rows += [("density", float(c), float(v))
             for c, v in zip(m.bin_centers, m.density)]
    return csv_text(["kind", "angle", "value"], rows)


def _function_csv(f: ka.CircleFunction) -> str:
    theta = ka.grid_angles(f.grid_size)
    rows = [(j, float(theta[j]), float(f.values[j].real),
             float(f.values[j].imag)) for j in range(f.grid_size)]
    return csv_text(["j", "theta", "re", "im"], rows)


def _emit(args, doc, table=None) -> None:
    if args.format == "csv":
        text = table if table is not None else _doc_csv(doc)
    else:
        text = stable_dumps(doc) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# -- measure ------------------------------------------------------------


def _cmd_measure_conv(args) -> int:
    mu = _load_measure(args.left, args.bins, args.seed)
    nu = _load_measure(args.right, args.bins, args.seed)
    result = cm.convolve(mu, nu)
    _emit(args, result.to_dict(), _measure_csv(result))
    return 0


def _cmd_measure_pow(args) -> int:
    rho = _load_measure(args.measure, args.bins, args.seed)
    result = cm.convolution_power(rho, args.power)
    _emit(args, result.to_dict(), _measure_csv(result))
    return 0


def _cmd_measure_exp(args) -> int:
    rho = _load_measure(args.measure, args.bins, args.seed)
    result = (cm.normalized_chaos(rho, tail_tol=args.tail_tol)
              if args.normalized else cm.exp_measure(rho, tail_tol=args.tail_tol))
    _emit(args, result.to_dict(), _measure_csv(result))
    return 0


def _cmd_measure_fourier(args) -> int:
    rows = fourier_rows(_load_measure(args.measure, args.bins, args.seed),
                        args.band)
    doc = {"schema": "fourier-table/1", "band": args.band,
           "coefficients": [[n, re, im] for n, re, im, _ in rows]}
    _emit(args, doc, csv_text(["n", "re", "im", "abs"], rows))
    return 0


def _cmd_measure_classify(args) -> int:
    rho = _load_measure(args.measure, args.bins, args.seed)
    reports, rows = measure_classification(rho, args.band, args.epsilon,
                                           args.delta, args.family_size,
                                           args.seed)
    doc = {"schema": "measure-classify/1", **reports}
    _emit(args, doc, csv_text(["probe", "passed", "statistic"], rows))
    return 0


# -- kalish -------------------------------------------------------------


def _cmd_kalish_apply(args) -> int:
    f = _load_function(args.function, args.grid)
    result = ka.apply_T(f)
    _emit(args, result.to_dict(), _function_csv(result))
    return 0


def _cmd_kalish_residual(args) -> int:
    fields = PROBE_FIELDS["residual"]
    rows = residual_rows(args.angle or fields["angles"], args.grids or fields["grids"])
    doc = {"schema": "residual-table/1",
           "rows": [[la, m, r] for la, m, r, _ in rows]}
    _emit(args, doc, csv_text(["lambda", "grid", "residual", "ratio"], rows))
    return 0


def _cmd_kalish_matrix_check(args) -> int:
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    M = args.grid
    T = ka.kalish_matrix(M)
    worst_apply = 0.0
    worst_solve = 0.0
    for k in range(args.count):
        rng = np.random.default_rng(derive_seed(args.seed, f"matrix-check:{k}"))
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        f = ka.CircleFunction(v.copy(), M)
        via_matrix = T @ v
        via_operator = ka.apply_T(f).values
        worst_apply = max(worst_apply, float(np.max(np.abs(via_matrix - via_operator))))
        recovered = np.linalg.solve(T, via_matrix)
        err = float(np.max(np.abs(recovered - v)) / max(1.0, np.max(np.abs(v))))
        worst_solve = max(worst_solve, err)
    passed = worst_apply <= 1e-12 and worst_solve <= 1e-6
    doc = {"schema": "matrix-check/1", "grid": M, "trials": args.count,
           "max_apply_difference": worst_apply,
           "max_solve_error": worst_solve, "passed": passed}
    _emit(args, doc)
    return 0 if passed else 1


# -- gauss --------------------------------------------------------------


def _gauss_model(args) -> gm.GaussModel:
    sigma = _load_measure(args.measure, args.bins, args.seed)
    field = gm.corrected_field(sigma, args.nodes, args.grid)
    return gm.build_model(field)


def _cmd_gauss_build(args) -> int:
    model = _gauss_model(args)
    _emit(args, model.to_manifest())
    return 0


def _cmd_gauss_sample(args) -> int:
    model = _gauss_model(args)
    draws = gm.sample(model, args.count, args.seed)
    if args.format == "csv":
        rows = []
        for s, f in enumerate(draws):
            for j in range(f.grid_size):
                rows.append((s, j, float(f.values[j].real),
                             float(f.values[j].imag)))
        _emit(args, {}, csv_text(["sample", "j", "re", "im"], rows))
    else:
        doc = {"schema": "gauss-samples/1", "count": args.count,
               "samples": [f.to_dict() for f in draws]}
        _emit(args, doc)
    return 0


def _cmd_gauss_invariance(args) -> int:
    rep, doc = invariance_report(_gauss_model(args), args.transport_scale,
                                 args.samples, args.seed, args.tolerance)
    _emit(args, doc)
    return 0 if rep.passed else 1


def _cmd_gauss_coeff(args) -> int:
    model = _gauss_model(args)
    xstar = random_functional(derive_seed(args.seed, "functional"), args.grid)
    rows = [(n, a.real, a.imag, mc.value.real, mc.value.imag,
             mc.standard_error, sf.real, sf.imag)
            for n, a, mc, sf in gm.coefficient_rows(model, xstar, args.power,
                                                    args.samples, args.seed,
                                                    "mc:")]
    doc = {"schema": "coefficient-table/1", "samples": args.samples,
           "rows": [list(r) for r in rows]}
    _emit(args, doc, csv_text(["n", "analytic_re", "analytic_im", "mc_re",
                               "mc_im", "mc_se", "spectral_re",
                               "spectral_im"], rows))
    return 0


# -- hits ---------------------------------------------------------------


def _cmd_hits_density(args) -> int:
    L = _load_set(args.set)
    doc = {"schema": "density-report/1", "window": L.window, "size": L.size,
           "upper_density": hs.upper_density(L),
           "lower_density": hs.lower_density(L),
           "upper_banach_density": hs.upper_banach_density(L, args.min_len),
           "min_len": args.min_len,
           "ladder": hs.density_ladder(L.window)}
    _emit(args, doc)
    return 0


def _cmd_hits_ubd(args) -> int:
    L = _load_set(args.set)
    doc = {"schema": "density-report/1", "window": L.window,
           "min_len": args.min_len,
           "upper_banach_density": hs.upper_banach_density(L, args.min_len)}
    _emit(args, doc)
    return 0


def _cmd_hits_diff(args) -> int:
    L = _load_set(args.set)
    D = hs.difference_set(L)
    _emit(args, D.to_dict(),
          csv_text(["element"], [(int(v),) for v in D.elements]))
    return 0


def _cmd_hits_gaps(args) -> int:
    L = _load_set(args.set)
    doc = {"schema": "gap-report/1", "window": L.window, "size": L.size,
           "max_gap": hs.max_gap(L), "longest_interval": hs.longest_interval(L)}
    _emit(args, doc)
    return 0


# -- lab ----------------------------------------------------------------


def _cmd_lab_orbit(args) -> int:
    spec = _load_system(args.system, args.grid)
    x0 = lab.default_start(spec, args.seed)
    traj = lab.orbit_rows(spec, x0, args.steps)
    norms = traj.norms()
    doc = {"schema": "orbit-report/1", "system": spec.label,
           "steps": args.steps, "norm_min": float(norms.min()),
           "norm_max": float(norms.max()),
           "norms": [float(v) for v in norms]}
    rows = [(t, float(norms[t])) for t in range(traj.length)]
    _emit(args, doc, csv_text(["step", "norm"], rows))
    return 0


def _cmd_lab_classify(args) -> int:
    if args.systems:
        systems = lab.parse_systems(read_json(args.systems))
    else:
        systems = lab.default_battery(args.window)
    report = lab.classification_run(systems, window=args.window,
                                    seed=args.seed, mc_samples=args.samples,
                                    gap_bound=args.gap_bound)
    _emit(args, report.to_dict(), report.to_csv())
    return 0 if not report.flagged else 1


# -- run ----------------------------------------------------------------


def _cmd_run(args) -> int:
    config = parse_config(Path(args.config).read_text())
    return run_experiment(config, out_dir=args.out)


# -- parser -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="root seed for all derived randomness")
    shared.add_argument("--bins", type=int, default=argparse.SUPPRESS,
                        help="circle-measure bin count (power of two)")
    shared.add_argument("--grid", type=int, default=argparse.SUPPRESS,
                        help="function grid size M")
    shared.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path (run: output directory)")
    shared.add_argument("--format", choices=["json", "csv"],
                        default=argparse.SUPPRESS, help="output format")

    parser = argparse.ArgumentParser(prog="hyperlab", parents=[shared])
    top = parser.add_subparsers(dest="command", required=True)

    def sub(group, name, handler, **kwargs):
        p = group.add_parser(name, parents=[shared], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def twin(p, flag, probe, key="", **kwargs):  # type and default from the config
        default = PROBE_FIELDS[probe][key or flag[2:].replace("-", "_")]
        p.add_argument(flag, type=type(default), default=default, **kwargs)

    measure = top.add_parser("measure", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    p = sub(measure, "conv", _cmd_measure_conv)
    p.add_argument("left")
    p.add_argument("right")
    p = sub(measure, "pow", _cmd_measure_pow)
    p.add_argument("measure")
    p.add_argument("power", type=int)
    p = sub(measure, "exp", _cmd_measure_exp)
    p.add_argument("measure")
    twin(p, "--tail-tol", "exp")
    p.add_argument("--normalized", action="store_true",
                   help="emit the chaos part, rescaled to a probability")
    p = sub(measure, "fourier", _cmd_measure_fourier)
    p.add_argument("measure")
    twin(p, "--band", "fourier")
    p = sub(measure, "classify", _cmd_measure_classify)
    p.add_argument("measure")
    for flag in ("--band", "--epsilon", "--delta", "--family-size"):
        twin(p, flag, "measure-classify")

    kal = top.add_parser("kalish", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    p = sub(kal, "apply", _cmd_kalish_apply)
    p.add_argument("function")
    p = sub(kal, "residual", _cmd_kalish_residual)
    p.add_argument("--angle", type=float, action="append",
                   help="eigenvalue angle; repeatable")
    p.add_argument("--grids", type=lambda s: [int(v) for v in s.split(",")],
                   help="comma-separated grid sizes")
    p = sub(kal, "matrix-check", _cmd_kalish_matrix_check)
    p.add_argument("--count", type=int, default=5)

    gauss = top.add_parser("gauss", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    for name, handler in (("build", _cmd_gauss_build),
                          ("sample", _cmd_gauss_sample),
                          ("invariance", _cmd_gauss_invariance),
                          ("coeff", _cmd_gauss_coeff)):
        p = sub(gauss, name, handler)
        p.add_argument("--measure", default="uniform",
                       help="spectral measure sigma (token or path)")
        twin(p, "--nodes", "invariance")  # one node default for all Gauss probes
        if name == "sample":
            p.add_argument("--count", type=int, default=8)
        if name == "invariance":
            twin(p, "--samples", name)
            twin(p, "--tolerance", name)
            twin(p, "--transport-scale", name,
                 help="!= 1 runs the non-unimodular negative control")
        if name == "coeff":
            twin(p, "--samples", name)
            twin(p, "--power", name, "max_power")

    hits = top.add_parser("hits", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    for name, handler in (("density", _cmd_hits_density),
                          ("ubd", _cmd_hits_ubd),
                          ("diff", _cmd_hits_diff),
                          ("gaps", _cmd_hits_gaps)):
        p = sub(hits, name, handler)
        p.add_argument("set", help="windowed-set JSON or integer lines")
        if name in ("density", "ubd"):
            twin(p, "--min-len", "ubd")

    labp = top.add_parser("lab", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    p = sub(labp, "orbit", _cmd_lab_orbit)
    p.add_argument("system")
    twin(p, "--steps", "orbit")
    p = sub(labp, "classify", _cmd_lab_classify)
    p.add_argument("--systems", help="JSON file with a list of system specs")
    for flag in ("--window", "--samples", "--gap-bound"):
        twin(p, flag, "classification")

    p = sub(top, "run", _cmd_run, help="execute an experiment config")
    p.add_argument("config")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error surface
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
