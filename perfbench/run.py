"""Benchmark of the langcert command line.

    python3 perfbench/run.py --workload certify-d1 --seed 0 --seconds 30 --trace 0

Runs the workload's CLI commands through ``langcert.cli.main`` in this one
process, a pass at a time, until the next pass would end after ``--seconds``
(and at least three times, so every command reruns with the same seed and
its output files can be compared byte for byte).  Each command's exit code and
outputs are checked; a command that exits unexpectedly, fails a check or
writes files that differ from its first run counts as failed.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced passes, the layer self times and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
show every metric with its unit, the environment and every failed check.
A fuller record (per-command times, fit intervals, spans) goes to
``.perfbench_out/`` at the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import Tracer  # perfbench/tracer.py, beside this file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5  # fresh interpreters per setup_s; one sample varies by ~30%
# The first pass in a process ran ~10% slower than later ones (README), so the
# median of three or more passes is a warm one; the reruns also give every
# command outputs to compare with its first run.
MIN_PASSES = 3
ENSEMBLE_REPLICAS = 2000
SWEEP_REPLICAS = 250
# Acceptance criteria 7 and 8 are statistical: at these replica counts they
# miss on a share of seeds with correct code (README), so they are reported
# with every run but do not fail it.
RATE_BAND = (0.425, 0.575)
EXACT_RATE = 0.5
MAX_SWEEP_SPREAD = 0.25
RTOL, ATOL = 1e-9, 1e-14  # certificate values vs perfbench/reference.json

DOUBLE_WELL = {"family": "quartic_double_well", "params": {"quartic": 0.25, "well": 0.5}, "dim": 1}
SMALL_BUMP = {"family": "gaussian_bump",
              "params": {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, "dim": 1}
REPULSIVE_BUMP = {"family": "gaussian_bump",
                  "params": {"amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, "dim": 1}
COSINE = {"family": "cosine", "params": {"amplitude": 0.05, "frequency": 1.0}, "dim": 1}
QUADRATIC = {"family": "quadratic", "params": {"coef": 1.0}, "dim": 1}
QUADRATIC_W = {"family": "quadratic", "params": {"coef": 0.5}, "dim": 1}

# name -> (U, W, extra certify flags); every model certifies (exit code 0)
CERTIFY_MODELS = {
    "readme": (DOUBLE_WELL, SMALL_BUMP, []),
    "readme-split": (DOUBLE_WELL, SMALL_BUMP, ["--mode", "split"]),
    "readme-paper-literal": (DOUBLE_WELL, SMALL_BUMP, ["--paper-literal"]),
    "quadratic-repulsive-bump": (QUADRATIC, REPULSIVE_BUMP, []),
    "double-well": (DOUBLE_WELL, None, []),
    "double-well-cosine": (DOUBLE_WELL, COSINE, []),
    "quadratic-quadratic-thm4": (QUADRATIC, QUADRATIC_W, ["--mode", "thm4"]),
}

SIMULATE_CONFIG = {
    "model": {"N": 2, "d": 1, "U": QUADRATIC, "W": None},
    "integrator": {"scheme": "baoab", "dt": 0.001},
    "replicas": ENSEMBLE_REPLICAS, "horizon": 10.0, "stride": 10,
    "observables": ["mean_position", "kinetic_energy"],
    "fit": {"observable": "mean_position", "equilibrium": 0.0},
}
SWEEP_CONFIG = {
    "model_template": {"d": 1, "U": DOUBLE_WELL, "W": SMALL_BUMP},
    "Ns": [2, 8, 32],
    "integrator": {"scheme": "baoab", "dt": 0.01},
    "replicas": SWEEP_REPLICAS, "horizon": 20.0, "stride": 5,
    "init": {"position_offset": 1.0, "position_spread": 0.7071067811865476},
}

LAYERS = ("cli", "certifier", "potentials", "funcineq", "oracle", "simulator", "meanfield")
UNITS = {
    "commands_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "certify_s": "s", "oracle_s": "s", "time_to_rate_s": "s", "sweep_s": "s",
    "particle_steps_per_s": "1/s", "fail_ratio": "ratio",
}
END_TO_END = ("commands_s", "setup_s", "peak_rss_mb")  # the metrics BENCHMARK.json gates
KIND_METRIC = {"certify": "certify_s", "oracle": "oracle_s",
               "simulate": "time_to_rate_s", "sweep": "sweep_s"}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    name: str
    kind: str  # "certify", "oracle", "simulate" or "sweep"
    argv: list
    check: Callable[[Path], tuple[list, dict]]  # out dir -> (problems, info)
    particle_steps: int = 0


def _write_config(work: Path, name: str, config: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(config, indent=1))
    return str(path)


def certify_d1(work: Path) -> list[Command]:
    reference = json.loads((BENCH / "reference.json").read_text())
    cmds = []
    for name, (U, W, flags) in CERTIFY_MODELS.items():
        cfg = _write_config(work, name, {"model": {"N": 8, "d": 1, "U": U, "W": W}})
        expected = reference[name]
        cmds.append(Command(name, "certify", ["certify", "--config", cfg, *flags],
                            lambda out, expected=expected: check_certificate(out, expected)))
    cmds.append(Command("oracle", "oracle", ["oracle"], check_oracle))
    return cmds


def ensemble_fit(work: Path) -> list[Command]:
    cfg = _write_config(work, "simulate", SIMULATE_CONFIG)
    steps = round(SIMULATE_CONFIG["horizon"] / SIMULATE_CONFIG["integrator"]["dt"])
    return [Command("simulate", "simulate", ["simulate", "--config", cfg], check_simulate,
                    ENSEMBLE_REPLICAS * SIMULATE_CONFIG["model"]["N"] * steps)]


def n_sweep(work: Path) -> list[Command]:
    cfg = _write_config(work, "sweep", SWEEP_CONFIG)
    steps = round(SWEEP_CONFIG["horizon"] / SWEEP_CONFIG["integrator"]["dt"])
    return [Command("sweep", "sweep", ["sweep", "--config", cfg], check_sweep,
                    SWEEP_REPLICAS * sum(SWEEP_CONFIG["Ns"]) * steps)]


WORKLOADS = {"certify-d1": certify_d1, "ensemble-fit": ensemble_fit, "n-sweep": n_sweep}


# ---------------------------------------------------------------------------
# output checks: each returns (problems, information)
# ---------------------------------------------------------------------------

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _matches(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= RTOL * abs(want) + ATOL
    return got == want


def check_certificate(out: Path, expected: dict) -> tuple[list, dict]:
    cert = _read_json(out / "certificate.json")["certificate"]
    got = {"lambda": cert["lambda"], "C0": cert["C0"], "psd_witness": cert["psd_witness"],
           "c_lip": cert["inputs"]["c_lip"], "certified": cert["certified"]}
    problems = [f"{key} = {got[key]!r}, reference {want!r}"
                for key, want in expected.items() if not _matches(got[key], want)]
    return problems, {}


def check_oracle(out: Path) -> tuple[list, dict]:
    report = _read_json(out / "oracle.json")
    problems = [] if report["all_passed"] is True else ["oracle reports all_passed false"]
    return problems, {"checks": report["n_checks"]}


def _valid_fit(fit) -> bool:
    """A fitted rate that is finite, positive and inside its own interval."""
    lam, lo, hi = fit["lambda_hat"], fit["ci_low"], fit["ci_high"]
    return all(isinstance(v, float) and math.isfinite(v) for v in (lam, lo, hi)) and 0 < lo <= lam <= hi


def check_simulate(out: Path) -> tuple[list, dict]:
    if not (out / "timeseries.csv").is_file():
        return ["timeseries.csv missing"], {}
    fit = _read_json(out / "summary.json")["decay_fits"].get("mean_position")
    if fit is None:
        return ["no decay fit for mean_position"], {}
    if not _valid_fit(fit):
        return [f"invalid decay fit {fit}"], {}
    lam, lo, hi = fit["lambda_hat"], fit["ci_low"], fit["ci_high"]
    return [], {"lambda_hat": lam, "ci": [lo, hi],
                "criterion_7_band": RATE_BAND[0] <= lam <= RATE_BAND[1],
                "ci_covers_exact_rate": lo <= EXACT_RATE <= hi}


def check_sweep(out: Path) -> tuple[list, dict]:
    if not (out / "sweep.csv").is_file():
        return ["sweep.csv missing"], {}
    report = _read_json(out / "sweep.json")
    problems = [f"no valid fit at N={row['N']}: {row['fit']}"
                for row in report["table"] if row["fit"] is None or not _valid_fit(row["fit"])]
    if problems:
        return problems, {}
    spread = report["relative_spread"]
    return [], {"lambda_hat": {row["N"]: row["fit"]["lambda_hat"] for row in report["table"]},
                "relative_spread": spread, "criterion_8_spread": spread <= MAX_SWEEP_SPREAD}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    name: str
    kind: str
    wall: float
    exit_code: int | None
    digest: str
    output_bytes: int
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def run_command(cli, cmd: Command, seed: int, out: Path, tracer=None) -> Outcome:
    out.mkdir(parents=True)
    argv = [*cmd.argv, "--out", str(out), "--seed", str(seed)]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a crash is one failed command; the run goes on
            code = None
            log.write(traceback.format_exc())
        wall = time.perf_counter() - start
    digest, nbytes = hashlib.sha256(), 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        nbytes += len(data)
    outcome = Outcome(cmd.name, cmd.kind, wall, code, digest.hexdigest(), nbytes)
    if code != 0:
        tail = log.getvalue().strip().splitlines()[-1:] or [""]
        outcome.problems.append(f"exit code {code}, expected 0: {tail[0]}")
    else:
        try:
            outcome.problems, outcome.info = cmd.check(out)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            outcome.problems.append(f"unreadable output: {exc!r}")
    return outcome


@dataclass
class Pass:
    traced: bool
    outcomes: list
    tracer: object = None

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)


def run_passes(cli, commands, seed: int, seconds: float, trace: bool, work: Path) -> list[Pass]:
    """Repeat the pass until the next one would end after ``seconds``, at
    least MIN_PASSES times; with ``trace`` every second pass is traced."""
    passes: list[Pass] = []
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer().install() if traced else None
        pass_dir = work / f"pass{len(passes)}"
        try:
            outcomes = [run_command(cli, cmd, seed, pass_dir / cmd.name, tracer) for cmd in commands]
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(pass_dir)
        for o in outcomes:
            if first_digest.setdefault(o.name, o.digest) != o.digest:
                o.problems.append("output files differ from this command's first run")
        passes.append(Pass(traced, outcomes, tracer))
        elapsed = time.perf_counter() - start
        pass_s = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + pass_s > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def unit_of(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    return "bytes" if key.endswith("_bytes") else "count"


def _per_second(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(passes: list[Pass], commands: list[Command], setup: list[float]) -> dict:
    steps = sum(c.particle_steps for c in commands)
    per_pass = []
    for p in passes:
        m = {"commands_s": p.wall}
        for o in p.outcomes:
            key = KIND_METRIC[o.kind]
            m[key] = m.get(key, 0.0) + o.wall
        if steps:
            m["particle_steps_per_s"] = steps / sum(o.wall for o in p.outcomes
                                                    if o.kind in ("simulate", "sweep"))
        per_pass.append(m)
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def layer_metrics(p: Pass, commands: list[Command]) -> dict:
    tracer = p.tracer
    dur = tracer.durations()
    own, layer_self = tracer.self_times()
    counts = tracer.counts
    fits = sum(1 for span in tracer.spans if span[0] == "simulator.fit_decay")
    m = {
        "potentials.c_lip_s": dur["potentials.c_lip"],
        "potentials.c_lip_nodes": counts["potentials.c_lip_nodes"],
        "potentials.extract_constants_s": dur["potentials.extract_constants"],
        "potentials.convexity_fit_s": dur["potentials.convexity_fit"],
        "certifier.assemble_constants_s": dur["certifier.assemble_constants"],
        "certifier.certify_s": dur["certifier.certify"],
        "funcineq.grid_measure_s": dur["funcineq.grid_measure"],
        "funcineq.spectral_gap_s": dur["funcineq.spectral_gap"],
        "oracle.verify_s": dur["oracle.verify"],
        "oracle.fd_suite_s": dur["oracle.fd_suite"],
        "oracle.checks": sum(o.info.get("checks", 0) for o in p.outcomes),
        "meanfield.force_batch_s": dur["meanfield.force_batch"],
        "meanfield.force_calls": counts["meanfield.force_calls"],
        "meanfield.pair_evals": counts["meanfield.pair_evals"],
        "meanfield.pair_evals_per_s": _per_second(counts["meanfield.pair_evals"],
                                                  dur["meanfield.force_batch"]),
        "simulator.noise_s": dur["simulator.noise"],
        "simulator.normals": counts["simulator.normals"],
        "simulator.normals_per_s": _per_second(counts["simulator.normals"], dur["simulator.noise"]),
        "simulator.fit_decay_s": dur["simulator.fit_decay"],
        # each fit_decay calls _fit_lambda once for the point fit, then once per resample
        "simulator.bootstrap_resamples": counts["simulator.fit_lambda_calls"] - fits,
        "simulator.run_s": dur["simulator.run"],
        "simulator.run_self_s": own["simulator.run"],
        "simulator.observables_s": dur["simulator.observables"],
        "simulator.particle_steps": sum(c.particle_steps for c in commands),
        "cli.output_bytes": sum(o.output_bytes for o in p.outcomes),
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def traced_metrics(passes: list[Pass], commands: list[Command]) -> dict:
    traced = [layer_metrics(p, commands) for p in passes if p.traced]
    metrics = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in passes if p.traced)
                                   - statistics.median(p.wall for p in passes if not p.traced))
    return metrics


def measure_setup() -> list[float]:
    """Seconds to import langcert and build the CLI parser, one fresh
    interpreter per sample."""
    code = ("import time; t = time.perf_counter(); import langcert.cli; "
            "langcert.cli.build_parser(); print(repr(time.perf_counter() - t))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        return {}
    out = {}
    for lib in sorted({p for p in maps if "openblas" in p and ".so" in p}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def import_cli():
    """langcert.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "langcert" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'langcert'} not found; run from a langcert checkout")
    sys.path.insert(0, str(SRC))
    import langcert.cli

    if Path(langcert.cli.__file__).resolve().parent != SRC / "langcert":
        raise SystemExit(f"error: imported langcert from {langcert.cli.__file__}, not {SRC}")
    return langcert.cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="passed to every command's --seed")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        ap.error("--seed must be a u64 and --seconds positive")

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    env = environment()
    setup = [] if args.trace else measure_setup()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        commands = WORKLOADS[args.workload](work)
        passes = run_passes(cli, commands, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    if args.trace:
        metrics = traced_metrics(passes, commands)
        reported = metrics
    else:
        metrics = end_to_end(passes, commands, setup)
        metrics["fail_ratio"] = failed / len(outcomes)
        reported = {key: metrics[key] for key in END_TO_END}

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {len(outcomes)} commands, {failed} failed")
    for i, p in enumerate(passes):
        for o in p.outcomes:
            for problem in o.problems:
                print(f"FAILED pass {i} {o.name}: {problem}")
    for o in passes[0].outcomes:
        if o.info:
            print(f"info {o.name} {json.dumps(o.info)}")
    for key, value in metrics.items():
        print(f"metric {key} = {value!r} {unit_of(key)}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_samples": setup, "metrics": metrics,
        "passes": [{"traced": p.traced, "commands": [vars(o) for o in p.outcomes]} for p in passes],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    if args.trace:
        spans = [p.tracer.spans for p in passes if p.traced]
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
