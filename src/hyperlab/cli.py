"""Command-line surface: one binary, subcommand style.

Subcommands: measure conv|pow|exp|fourier|classify, kalish
apply|residual|matrix-check, gauss build|sample|invariance|coeff, hits
density|diff|gaps, lab orbit|classify, run <config>.  Global flags
--seed, --bins, --grid, --out, --format json|csv work before or after
the subcommand.  Configs are the source of truth for experiments; the
flags cover one-off exploration.

A command with a runner twin (measure fourier|classify, kalish
residual|matrix-check, gauss invariance|coeff, lab orbit|classify) is a
one-probe run: its flags become a one-probe experiment config, it
prints the runner's probe-report/1 document of that probe (byte for
byte the reports/<stem>.json that `run` writes; --format csv prints the
probe's table), and it exits with the runner's status: 0 when no
exact-grade check failed, 1 when one did, 2 when the probe raised.
Every other command reads its inputs, calls the library and prints the
result through _emit: one document, or with --format csv its table (the
document's field,value rows when it has none).  The CLI computes nothing
of its own and imports no numpy.

Measure arguments accept a path to a circle-measure JSON document or a
token: "uniform", "dirac:ANGLE[:MASS]", "probability[:SEED]".  System
arguments accept a path to a system JSON document or a token:
"kalish[:M]", "scalar-shift[:C[:DIM]]", "torus:A[:B...]".  Set
arguments accept a windowed-set JSON document or a newline-delimited
integer orbit log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import circle_measure as cm
from . import dynamics_lab as lab
from . import gauss_model as gm
from . import hitting_sets as hs
from . import kalish as ka
from .config import PROBE_FIELDS, TOP_DEFAULTS, config_from_dict, parse_config
from .jsonio import _read_field, csv_text, read_json, stable_dumps
from .runner import execute_probes, probe_report, realize_measure, run, run_status

__all__ = ["main"]

_GLOBAL_DEFAULTS = {**TOP_DEFAULTS, "out": None, "format": "json"}


# -- input loaders ------------------------------------------------------


def _parsed(part: str, number_type):
    """A token part as a number_type number, or the part itself when it is
    none, for the config or system reader to reject by field name."""
    try:
        return number_type(part)
    except ValueError:
        return part


def _parts(token: str, form: str) -> list:
    """The parts of token past its kind; more of them than form names is a
    ValueError that names the token."""
    parts = token.split(":")[1:]
    if len(parts) > form.count(":"):
        raise ValueError(f"token {token!r} has more parts than {form} takes")
    return parts


def _measure_entry(token: str) -> dict:
    """The config's measures entry of a measure token or path."""
    if token == "uniform":
        return {"kind": "uniform"}
    if token.startswith("dirac:"):
        parts = _parts(token, "dirac:ANGLE[:MASS]")
        entry = {"kind": "dirac", "angle": _parsed(parts[0], float)}
        if len(parts) > 1:
            entry["mass"] = _parsed(parts[1], float)
        return entry
    if token == "probability" or token.startswith("probability:"):
        parts = _parts(token, "probability[:SEED]")
        return {"kind": "probability",
                **({"seed": _parsed(parts[0], int)} if parts else {})}
    return {"kind": "file", "path": token}


def _load_measure(args, token: str) -> cm.CircleMeasure:
    config = config_from_dict({"seed": args.seed, "bins": args.bins,
                               "measures": {token: _measure_entry(token)}})
    return realize_measure(config.measures[token])


def _system_doc(token: str, grid: int):
    """The config's systems entry of a system token or path."""
    if token == "kalish" or token.startswith("kalish:"):
        parts = _parts(token, "kalish[:M]")
        return {"kind": "kalish", "grid": _parsed(parts[0], int) if parts else grid}
    if token == "scalar-shift" or token.startswith("scalar-shift:"):
        parts = _parts(token, "scalar-shift[:C[:DIM]]")
        return {"kind": "scalar_multiple_shift",
                "scalar": _parsed(parts[0], float) if parts else 2.0,
                "dimension": _parsed(parts[1], int) if len(parts) > 1 else 160}
    if token == "torus" or token.startswith("torus:"):
        return {"kind": "torus_rotation",
                "angles": [_parsed(a, float) for a in token.split(":")[1:]]}
    return read_json(token)


def _load_function(token: str, grid: int) -> ka.CircleFunction:
    if token == "one":
        return ka.CircleFunction.constant(1.0, grid)
    if token.startswith("chi:"):
        angle = _parsed(_parts(token, "chi:ANGLE")[0], float)
        return ka.chi(_read_field({"angle": angle}, token, "angle", "number"), grid)
    return ka.CircleFunction.from_dict(read_json(token))


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


# -- one-probe runs -----------------------------------------------------


def _one_probe_config(args):
    """The one-probe experiment config of a twin command: the global
    flags as the top-level fields, the flags as the probe's fields, and
    a measure or system token as a measures or systems entry."""
    given = vars(args)
    doc = {key: given[key] for key in TOP_DEFAULTS}
    probe = {"probe": args.probe}
    probe.update((key, given[key]) for key in PROBE_FIELDS[args.probe]
                 if key in given and key not in TOP_DEFAULTS)
    if "measure" in probe:
        doc["measures"] = {probe["measure"]: _measure_entry(probe["measure"])}
    if "system" in probe:  # the orbit probe names its system by label
        doc["systems"] = [_system_doc(probe["system"], args.grid)]
        probe["system"] = lab.parse_systems(doc["systems"])[0].label
    if "systems" in given:
        doc["systems"] = read_json(given["systems"])
    doc["probes"] = [probe]
    return config_from_dict(doc)


def _cmd_probe(args) -> int:
    config = _one_probe_config(args)
    (result,) = execute_probes(config)
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
    else:
        _emit(args, probe_report(result, config.seed), result.table)
    return run_status([result])


# -- measure ------------------------------------------------------------


def _cmd_measure_conv(args) -> int:
    mu, nu = _load_measure(args, args.left), _load_measure(args, args.right)
    result = cm.convolve(mu, nu)
    _emit(args, result.to_dict(), _measure_csv(result))
    return 0


def _cmd_measure_pow(args) -> int:
    rho = _load_measure(args, args.measure)
    result = cm.convolution_power(rho, args.power)
    _emit(args, result.to_dict(), _measure_csv(result))
    return 0


def _cmd_measure_exp(args) -> int:
    rho = _load_measure(args, args.measure)
    result = (cm.normalized_chaos(rho, tail_tol=args.tail_tol)
              if args.normalized else cm.exp_measure(rho, tail_tol=args.tail_tol))
    _emit(args, result.to_dict(), _measure_csv(result))
    return 0


# -- kalish -------------------------------------------------------------


def _cmd_kalish_apply(args) -> int:
    f = _load_function(args.function, args.grid)
    result = ka.apply_T(f)
    _emit(args, result.to_dict(), _function_csv(result))
    return 0


# -- gauss --------------------------------------------------------------


def _gauss_model(args) -> gm.GaussModel:
    sigma = _load_measure(args, args.measure)
    field = gm.corrected_field(sigma, args.nodes, args.grid)
    return gm.build_model(field)


def _cmd_gauss_build(args) -> int:
    model = _gauss_model(args)
    _emit(args, model.to_manifest())
    return 0


def _cmd_gauss_sample(args) -> int:
    draws = gm.sample(_gauss_model(args), args.count, args.seed)
    doc = {"schema": "gauss-samples/1", "count": args.count,
           "samples": [f.to_dict() for f in draws]}
    rows = [(s, j, float(v.real), float(v.imag))
            for s, f in enumerate(draws) for j, v in enumerate(f.values)]
    _emit(args, doc, csv_text(["sample", "j", "re", "im"], rows))
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


# -- run ----------------------------------------------------------------


def _cmd_run(args) -> int:
    config = parse_config(Path(args.config).read_text())
    return run(config, out_dir=args.out)


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

    def sub(group, name, handler=None, probe=None, **kwargs):
        """A command; one with a probe kind is that probe's one-probe run."""
        p = group.add_parser(name, parents=[shared], **kwargs)
        p.set_defaults(handler=handler or _cmd_probe, probe=probe)
        return p

    def field(p, flag, probe, key="", **kwargs):
        """A flag named after a probe field, typed by its config default.
        A twin leaves it unset for the config to expand; a thin command
        takes the default."""
        key = key or flag[2:].replace("-", "_")
        default = PROBE_FIELDS[probe][key]
        p.add_argument(flag, dest=key, type=type(default), **kwargs,
                       default=argparse.SUPPRESS if p.get_default("probe") else default)

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
    field(p, "--tail-tol", "exp")
    p.add_argument("--normalized", action="store_true",
                   help="emit the chaos part, rescaled to a probability")
    p = sub(measure, "fourier", probe="fourier")
    p.add_argument("measure")
    field(p, "--band", "fourier")
    p = sub(measure, "classify", probe="measure-classify")
    p.add_argument("measure")
    for flag in ("--band", "--family-size"):
        field(p, flag, "measure-classify")

    kal = top.add_parser("kalish", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    p = sub(kal, "apply", _cmd_kalish_apply)
    p.add_argument("function")
    p = sub(kal, "residual", probe="residual")
    p.add_argument("--angle", dest="angles", type=float, action="append",
                   default=argparse.SUPPRESS, help="eigenvalue angle; repeatable")
    p.add_argument("--grids", type=lambda s: [int(v) for v in s.split(",")],
                   default=argparse.SUPPRESS, help="comma-separated grid sizes")
    sub(kal, "matrix-check", probe="matrix-check")

    gauss = top.add_parser("gauss", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    for name, handler in (("build", _cmd_gauss_build),
                          ("sample", _cmd_gauss_sample),
                          ("invariance", None), ("coeff", None)):
        p = sub(gauss, name, handler, probe=None if handler else name)
        p.add_argument("--measure", help="spectral measure sigma (token or path)",
                       default=argparse.SUPPRESS if p.get_default("probe") else "uniform")
        field(p, "--nodes", "invariance")  # one node default for all Gauss probes
        if name == "sample":
            p.add_argument("--count", type=int, default=8)
        if name == "invariance":
            field(p, "--samples", name)
            field(p, "--transport-scale", name,
                  help="!= 1 runs the non-unimodular negative control")
        if name == "coeff":
            field(p, "--samples", name)
            field(p, "--power", name, "max_power")

    hits = top.add_parser("hits", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    for name, handler in (("density", _cmd_hits_density),
                          ("diff", _cmd_hits_diff),
                          ("gaps", _cmd_hits_gaps)):
        p = sub(hits, name, handler)
        p.add_argument("set", help="windowed-set JSON or integer lines")
        if name == "density":
            field(p, "--min-len", "ubd")

    labp = top.add_parser("lab", parents=[shared]).add_subparsers(
        dest="subcommand", required=True)
    p = sub(labp, "orbit", probe="orbit")
    p.add_argument("system")
    field(p, "--steps", "orbit")
    p = sub(labp, "classify", probe="classification")
    p.add_argument("--systems", default=argparse.SUPPRESS,
                   help="JSON file with a list of system specs")
    for flag in ("--window", "--samples"):
        field(p, flag, "classification")

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
