"""Seeded benchmark for hyperlab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload config (see workloads.py) through the public runner,
``hyperlab.config.config_from_dict`` then ``hyperlab.runner.run``, in a
closed loop, one pass after another.  The number of passes is fixed by S
and the workload's nominal pass time, never by the clock, so the same
arguments always make the same operations; the run lasts about S seconds
on a host as fast as the nominal one.  Every pass is checked: the runner's
exit status against its summary, each probe's ``passed`` and ``error``,
and the bytes under reports/, tables/ and plotdata/ against pass 1.

Every measured interval is bracketed by timings of a fixed reference kernel
(hostspeed.py), and each time metric is the interval's seconds scaled to
the host speed of the recorded baseline.

With --trace 0, warm passes in this process alternate with cold passes,
each the first pass of a fresh child process (cold_probe.py), and the
result carries the end-to-end metrics.  With --trace 1, untraced and traced
warm passes alternate, and the result carries the per-layer metrics of
spans.py.  Human-readable lines come first; the last line of standard
output is the JSON result.  Artifacts, spans and full result records go to
.perfbench_out/ in the checkout.  Exit status 2, with no result, when the
checkout has no hyperlab source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import provenance
import spans as span_lib
from workloads import NOMINAL_PASS_S, WORKLOADS, config_doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "hyperlab"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5  # at least; each cold pass adds one
# The order in which kinds of pass take turns after the first pass, by
# --trace.  A run makes at least two whole cycles.
PASS_CYCLE = {0: ("warm", "cold"), 1: ("warm", "traced")}
MIN_CYCLES = 2
# One BLAS/OpenMP thread.  On a two-core shared host a second BLAS thread
# made passes slower and their times far more spread (first pass most).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
ARTIFACT_DIRS = ("reports", "tables", "plotdata")


class BenchError(Exception):
    """The benchmark cannot run in this checkout; no result is printed."""


@dataclass
class Pass:
    kind: str  # "first", "warm", "cold" or "traced"
    seconds: float
    speed: float  # hostspeed factor of the interval
    status: int
    summary_status: int
    digest: str
    stems: dict  # artifact stem -> sha256 of its files
    probes: list  # summary entries, each with its artifact "stem"
    artifact_bytes: int
    artifact_files: int


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_package(path: str) -> None:
    if Path(path).resolve().parent != PACKAGE_DIR.resolve():
        raise BenchError(f"hyperlab imported from {path}, not from {PACKAGE_DIR}")


def cold_probe(workload: str, seed: int, out_dir: Path | None = None):
    """(set-up seconds, first-pass seconds, exit status) of a fresh process.

    Set-up runs from starting the interpreter until hyperlab is imported
    and the workload config is parsed.  Without out_dir the child stops
    there, and the pass fields are None.
    """
    command = [sys.executable, str(HERE / "cold_probe.py"), workload, str(seed)]
    if out_dir is not None:
        command.append(str(out_dir))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"cold probe failed:\n{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    check_package(lines[0])
    setup = float(lines[1]) - start
    if out_dir is None:
        return setup, None, None
    return setup, float(lines[-2]), int(lines[-1])


def import_hyperlab():
    if str(PACKAGE_DIR.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE_DIR.parent))
    hyperlab = importlib.import_module("hyperlab")
    for name in ("config", "runner"):
        importlib.import_module(f"hyperlab.{name}")
    check_package(hyperlab.__file__)
    return hyperlab


def _file_record(sub: str, path: Path, data: bytes) -> bytes:
    name = f"{sub}/{path.name}".encode()
    return name + b"\0" + len(data).to_bytes(8, "big") + data


def read_pass(kind: str, out_dir: Path, seed: int, seconds: float,
              speed: float, status: int) -> Pass:
    """Digest the artifact tree of one pass and pair probes with stems."""
    whole = hashlib.sha256()
    per_stem = defaultdict(hashlib.sha256)
    nbytes = nfiles = 0
    for sub in ARTIFACT_DIRS:
        for path in sorted((out_dir / sub).iterdir()):
            data = path.read_bytes()
            record = _file_record(sub, path, data)
            whole.update(record)
            per_stem[path.stem].update(record)
            nbytes += len(data)
            nfiles += 1
    summary_name = f"summary-run-{seed}"
    summary = json.loads((out_dir / "reports" / f"{summary_name}.json").read_text())
    by_key = defaultdict(list)
    for path in sorted((out_dir / "reports").glob("*.json")):
        if path.stem != summary_name:
            doc = json.loads(path.read_text())
            by_key[(doc["probe"], doc["target"])].append(path.stem)
    probes = []
    for entry in summary["probes"]:
        stems = by_key[(entry["probe"], entry["target"])]
        probes.append(dict(entry, stem=stems.pop(0) if stems else None))
    return Pass(kind, seconds, speed, status, summary["status"],
                whole.hexdigest(),
                {k: v.hexdigest() for k, v in per_stem.items()}, probes,
                nbytes, nfiles)


def grade_pass(p: Pass, first: Pass) -> tuple[int, list[str]]:
    """(failed probe executions, reasons the pass is incorrect)."""
    failed, wrong = 0, []
    expected = 0
    for probe in p.probes:
        exact_fail = probe["grade"] == "exact" and not probe["passed"]
        diverged = (probe["stem"] is None
                    or p.stems[probe["stem"]] != first.stems.get(probe["stem"]))
        if probe["error"]:
            wrong.append(f"{probe['probe']} raised: {probe['error']}")
            expected = 2
        elif exact_fail:
            expected = max(expected, 1)
        if diverged:
            wrong.append(f"{probe['probe']} artifacts differ from pass 1")
        failed += bool(probe["error"] or exact_fail or diverged)
    if not p.status == p.summary_status == expected:
        wrong.append(f"exit status {p.status}, summary {p.summary_status}, "
                     f"probes imply {expected}")
    if p.digest != first.digest:
        wrong.append("artifact digest differs from pass 1")
    return failed, wrong


def pass_plan(workload: str, trace: int, seconds: float) -> list[str]:
    """The kinds of pass after the first, in order.

    It depends on the arguments alone: about ``seconds`` worth of passes at
    the workload's nominal pass time, and at least MIN_CYCLES cycles.
    """
    cycle = PASS_CYCLE[trace]
    count = max(MIN_CYCLES * len(cycle),
                round(seconds / NOMINAL_PASS_S[workload]) - 1)
    return [cycle[i % len(cycle)] for i in range(count)]


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, hostspeed factor) of a fresh process that stops
    once set up."""
    before = hostspeed.reference_seconds()
    took = cold_probe(workload, seed)[0]
    return took, hostspeed.speed(before, hostspeed.reference_seconds())


def drive(hyperlab, args, work: Path, recorder, setup: list) -> list[Pass]:
    """The first pass, then the passes of the plan in turn: warm and cold
    ones (a fresh process each, whose set-up seconds and hostspeed factor
    are appended to ``setup``), or warm and traced ones when tracing."""
    doc = config_doc(args.workload, args.seed)
    passes: list[Pass] = []

    def one(kind: str) -> None:
        out_dir = work / f"pass-{len(passes)}"
        before = hostspeed.reference_seconds()
        if kind == "cold":
            took_setup, took, status = cold_probe(args.workload, args.seed,
                                                  out_dir)
        elif kind == "traced":
            recorder.pass_id = len(passes)
            with span_lib.traced("hyperlab", recorder):
                took, status = timed_pass(hyperlab, doc, out_dir)
        else:
            took, status = timed_pass(hyperlab, doc, out_dir)
        speed = hostspeed.speed(before, hostspeed.reference_seconds())
        if kind == "cold":
            setup.append((took_setup, speed))
        passes.append(read_pass(kind, out_dir, args.seed, took, speed,
                                status))
        shutil.rmtree(out_dir)

    for kind in ["first"] + pass_plan(args.workload, args.trace, args.seconds):
        one(kind)
    return passes


def timed_pass(hyperlab, doc: dict, out_dir: Path) -> tuple[float, int]:
    start = time.perf_counter()
    status = hyperlab.runner.run(hyperlab.config.config_from_dict(doc), out_dir)
    return time.perf_counter() - start, status


def median_of(values: list[dict]) -> dict:
    return {k: statistics.median(v[k] for v in values) for k in values[0]}


def normalized(passes: list[Pass], *kinds: str) -> list[float]:
    """Seconds of the passes of these kinds, at baseline host speed."""
    return [p.seconds * p.speed for p in passes if p.kind in kinds]


def layer_metrics(passes: list[Pass], recorder) -> tuple[dict, list[float]]:
    traced = [p for p in passes if p.kind == "traced"]
    per_pass, covered = [], []
    groups = recorder.by_pass()
    for index, p in enumerate(passes):
        if p.kind == "traced":
            metrics = span_lib.pass_metrics(groups[index])
            for name in metrics:
                if span_lib.metric_unit(name)[0] == "s":
                    metrics[name] *= p.speed
            per_pass.append(metrics)
            covered.append(span_lib.coverage(groups[index], p.seconds))
    metrics = median_of(per_pass)
    metrics["runner.artifact_bytes"] = statistics.median(
        p.artifact_bytes for p in traced)
    metrics["runner.artifact_files"] = statistics.median(
        p.artifact_files for p in traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(normalized(passes, "traced"))
        / statistics.median(normalized(passes, "warm")))
    return metrics, covered


def write_record(folder: str, args, record) -> Path:
    path = OUT / folder / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    return path


def benchmark(args) -> dict:
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchError(f"no hyperlab package at {PACKAGE_DIR}")
    setup = [] if args.trace else [probe_setup(args.workload, args.seed)]
    hyperlab = import_hyperlab()
    config_text = hyperlab.config.config_from_dict(
        config_doc(args.workload, args.seed)).to_text()
    recorder = span_lib.Recorder() if args.trace else None
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        passes = drive(hyperlab, args, work, recorder, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    while not args.trace and len(setup) < SETUP_RUNS:
        setup.append(probe_setup(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(p.probes) for p in passes)
    failed, wrong = 0, []
    for index, p in enumerate(passes):
        f, w = grade_pass(p, passes[0])
        failed += f
        wrong += [f"pass {index} ({p.kind}): {reason}" for reason in w]

    if args.trace:
        metrics, covered = layer_metrics(passes, recorder)
        units = {name: span_lib.metric_unit(name)[0] for name in metrics}
        span_file = write_record("spans", args, recorder.to_rows())
    else:
        metrics = {"setup_s": statistics.median(s * f for s, f in setup),
                   "first_pass_s": statistics.median(
                       normalized(passes, "first", "cold")),
                   "pass_s": statistics.median(normalized(passes, "warm")),
                   "peak_rss_mb": peak_rss_mb}
        raw = {"setup_s": statistics.median(s for s, _ in setup),
               "first_pass_s": statistics.median(
                   p.seconds for p in passes if p.kind in ("first", "cold")),
               "pass_s": statistics.median(
                   p.seconds for p in passes if p.kind == "warm")}
        units = {"setup_s": "s", "first_pass_s": "s", "pass_s": "s",
                 "peak_rss_mb": "MB"}
    env = provenance.collect(ROOT, PACKAGE_DIR, sys.modules["numpy"],
                             args.seed,
                             hashlib.sha256(config_text.encode()).hexdigest())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": env,
              "reference_s": hostspeed.REFERENCE_S,
              "setup_runs": [{"seconds": s, "speed": f} for s, f in setup],
              "passes": [{"kind": p.kind, "seconds": p.seconds,
                          "speed": p.speed, "status": p.status,
                          "digest": p.digest}
                         for p in passes],
              "attempted": attempted, "failed": failed, "incorrect": wrong,
              "metrics": metrics}
    if args.trace:
        record["span_coverage"] = covered
    else:
        record["raw_wall_s"] = raw
    result_file = write_record("results", args, record)

    counts = Counter(p.kind for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"passes {dict(counts)}, set-up probes {len(setup)}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for name, value in ({} if args.trace else raw).items():
        print(f"raw wall {name} {value!r} s")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted!r}")
    print(f"digest {args.workload} seed {args.seed} sha256 {passes[0].digest}")
    if args.trace:
        print(f"span coverage of traced pass time: {covered}")
        print(f"spans written to {span_file.relative_to(ROOT)}")
    for reason in wrong:
        print(f"INCORRECT {reason}")
    print(f"provenance {json.dumps(env, sort_keys=True)}")
    print(f"record written to {result_file.relative_to(ROOT)}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads, here or in children
    try:
        result = benchmark(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
