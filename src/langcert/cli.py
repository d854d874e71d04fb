"""Command-line entry point: certification, simulation, sweeps, oracle suites.

Every command reads a JSON config, validates it strictly (unknown keys are
rejected), and writes machine-readable reports into the output directory:
a JSON summary carrying the config echo plus its SHA-256 hash, and CSV time
series for the simulation commands.  Outputs are bit-identical across runs
with the same config and seed.

Exit codes: 0 success / certified, 1 internal error, 2 missing constant or
failed certification, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certifier, oracle, simulator
from .errors import InvalidSpecError, LangcertError, MissingConstantError, ResourceCapError
from .meanfield import ModelConfig
from .simulator import IntegratorConfig, InitSpec

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISSING_CONSTANT = 2
EXIT_RESOURCE_CAP = 3

SCHEMA_VERSION = "1"


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def _json_safe(obj):
    """Recursively replace non-finite floats with strings for strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n")


def _write_timeseries_csv(path: Path, times, means, variances, replicas: int) -> None:
    lines = ["time,observable_id,mean,variance,replicas"]
    for name in sorted(means):
        m, v = means[name], variances[name]
        for k in range(len(times)):
            lines.append(f"{times[k]!r},{name},{m[k]!r},{v[k]!r},{replicas}")
    path.write_text("\n".join(lines) + "\n")


def _require_keys(config: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise InvalidSpecError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise InvalidSpecError(f"missing keys in {where}: {sorted(missing)}")


def _load_model(obj: dict) -> ModelConfig:
    return ModelConfig.from_json(obj)


def _load_integrator(obj: dict) -> IntegratorConfig:
    _require_keys(obj, {"scheme", "dt"}, set(), "integrator")
    return IntegratorConfig(scheme=obj.get("scheme", "baoab"), dt=float(obj.get("dt", 1e-2)))


def _load_init(obj: dict | None) -> InitSpec:
    if obj is None:
        return InitSpec()
    _require_keys(obj, {"position_offset", "position_spread"}, set(), "init")
    return InitSpec(
        position_offset=float(obj.get("position_offset", 2.0)),
        position_spread=float(obj.get("position_spread", 1.0)),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_certify(config: dict, out_dir: Path, seed: int, mode: str, paper_literal: bool) -> int:
    _require_keys(
        config,
        {"model", "mode", "kappa", "cls", "rho_marginal", "use_split", "refine"},
        {"model"},
        "certify config",
    )
    model = _load_model(config["model"])
    mode = config.get("mode", mode)
    use_split = bool(config.get("use_split", mode == "split"))
    if mode == "split":
        mode = "auto"
    bundle = certifier.assemble_constants(
        model.U,
        model.W,
        kappa_user=config.get("kappa"),
        cls_user=config.get("cls"),
        rho_marginal=config.get("rho_marginal"),
    )
    cert = certifier.certify(
        bundle,
        mode=mode,
        use_split=use_split,
        refine=bool(config.get("refine", not paper_literal)),
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "certificate",
        "config_echo": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "model": model.to_json(),
        "certificate": cert.to_json(),
    }
    if use_split:
        # the split route is requested for comparison: report the
        # single-constant certificate alongside
        single = certifier.certify(bundle, mode=cert.mode, use_split=False)
        report["certificate_single"] = single.to_json()
    _write_json(out_dir / "certificate.json", report)
    if not cert.certified:
        print(f"certification failed: notes={cert.notes}, psd_witness={cert.psd_witness:.3e}")
        return EXIT_MISSING_CONSTANT
    print(f"certified: lambda={cert.lam:.6e} C0={cert.C0:.4f} (mode={cert.mode}, {cert.variant})")
    return EXIT_OK


def cmd_simulate(config: dict, out_dir: Path, seed: int) -> int:
    _require_keys(
        config,
        {"model", "integrator", "replicas", "horizon", "stride", "observables", "init", "fit",
         "report_format"},
        {"model", "integrator", "replicas", "horizon"},
        "simulate config",
    )
    report_format = config.get("report_format", "csv-bundle")
    if report_format not in ("json", "csv-bundle"):
        raise InvalidSpecError(f"unknown report_format {report_format!r}")
    model = _load_model(config["model"])
    integrator = _load_integrator(config["integrator"])
    observables = tuple(config.get("observables", ["mean_position"]))
    if not observables:
        raise InvalidSpecError("empty observable list")
    fit_cfg = config.get("fit") or {}
    _require_keys(fit_cfg, {"observable", "equilibrium"}, set(), "fit")
    fit_obs = fit_cfg.get("observable", observables[0])
    res = simulator.run(
        model,
        integrator,
        replicas=int(config["replicas"]),
        horizon=float(config["horizon"]),
        master_seed=seed,
        init=_load_init(config.get("init")),
        observables=observables,
        stride=int(config.get("stride", 1)),
        keep_replica_series=(fit_obs,),
    )
    if report_format == "csv-bundle":
        _write_timeseries_csv(out_dir / "timeseries.csv", res.times, res.means, res.variances, res.n_replicas)
    fit = simulator.fit_decay(
        res.times,
        res.per_replica[fit_obs],
        float(fit_cfg.get("equilibrium", 0.0)),
        observable_id=fit_obs,
    )
    fits = {fit_obs: fit.to_json() if fit is not None else None}
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation",
        "config_echo": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "decay_fits": fits,
        "n_steps": int(round(float(config["horizon"]) / integrator.dt)),
    }
    _write_json(out_dir / "summary.json", report)
    print(f"simulated {config['replicas']} replicas to T={config['horizon']}; fits: {list(fits)}")
    return EXIT_OK


def cmd_sweep(config: dict, out_dir: Path, seed: int) -> int:
    _require_keys(
        config,
        {"model_template", "Ns", "integrator", "replicas", "horizon", "stride",
         "observable", "equilibrium", "init"},
        {"model_template", "Ns", "integrator", "replicas", "horizon"},
        "sweep config",
    )
    tpl = config["model_template"]
    _require_keys(tpl, {"d", "U", "W"}, {"d", "U"}, "model_template")
    from .potentials import PotentialSpec

    U = PotentialSpec.from_json(tpl["U"], role="confinement")
    W = PotentialSpec.from_json(tpl["W"], role="interaction") if tpl.get("W") else None
    integrator = _load_integrator(config["integrator"])
    observable = config.get("observable", "mean_position")
    table = simulator.n_sweep(
        U,
        W,
        d=int(tpl["d"]),
        Ns=[int(n) for n in config["Ns"]],
        integrator=integrator,
        replicas=int(config["replicas"]),
        horizon=float(config["horizon"]),
        master_seed=seed,
        observable=observable,
        equilibrium_value=float(config.get("equilibrium", 0.0)),
        stride=int(config.get("stride", 5)),
        init=_load_init(config.get("init")),
    )
    rows = [{"N": n, "fit": fit.to_json() if fit is not None else None} for n, fit in table]
    rates = [fit.lambda_hat for _, fit in table if fit is not None]
    spread = (max(rates) - min(rates)) / np.mean(rates) if rates else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "n_sweep",
        "config_echo": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "table": rows,
        "relative_spread": spread,
    }
    _write_json(out_dir / "sweep.json", report)
    lines = ["N,lambda_hat,ci_low,ci_high,r_squared"]
    for n, fit in table:
        if fit is None:
            lines.append(f"{n},,,,")
        else:
            lines.append(f"{n},{fit.lambda_hat!r},{fit.ci_low!r},{fit.ci_high!r},{fit.r_squared!r}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"sweep over N={ [n for n, _ in table] }: relative spread {spread}")
    return EXIT_OK


def cmd_oracle(config: dict, out_dir: Path, seed: int) -> int:
    _require_keys(config, {"n_lyapunov", "n_moment", "n_boundedness"}, set(), "oracle config")
    report = oracle.oracle_suite(
        n_lyapunov=int(config.get("n_lyapunov", 20)),
        n_moment=int(config.get("n_moment", 10)),
        n_boundedness=int(config.get("n_boundedness", 10)),
        seed=seed,
    )
    report.update(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "oracle",
            "config_echo": config,
            "config_hash": _config_hash(config),
            "seed": seed,
        }
    )
    _write_json(out_dir / "oracle.json", report)
    n_pass = sum(1 for c in report["oracle_suite"] if c["passed"])
    print(f"oracle suite: {n_pass}/{report['n_checks']} checks passed")
    return EXIT_OK if report["all_passed"] else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="langcert", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("certify", "simulate", "sweep", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, required=(name != "oracle"),
                        help="JSON config file")
        sp.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        sp.add_argument("--mode", choices=("thm3", "thm4", "split"), default=None,
                        help="certification route")
        sp.add_argument("--paper-literal", action="store_true",
                        help="disable coefficient refinement channels")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = json.loads(args.config.read_text()) if args.config else {}
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "certify":
            mode = args.mode or config.get("mode", "auto")
            return cmd_certify(config, out_dir, args.seed, mode, args.paper_literal)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir, args.seed)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, args.seed)
        return cmd_oracle(config, out_dir, args.seed)
    except MissingConstantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_CONSTANT
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (InvalidSpecError, LangcertError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
