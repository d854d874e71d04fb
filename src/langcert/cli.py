"""Command-line entry point: certification, simulation, sweeps, oracle suites.

Every command reads a JSON config, validates it strictly (unknown keys are
rejected), and writes machine-readable reports into the output directory:
a JSON summary carrying the config echo plus its SHA-256 hash, and CSV time
series for the simulation commands.  Outputs are bit-identical across runs
with the same config and seed.

Exit codes: 0 success / certified, 1 internal error or usage error, 2
missing constant or failed certification, 3 resource cap exceeded.
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
from .potentials import PotentialSpec, param_types
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
            lines.append(f"{float(times[k])!r},{name},{float(m[k])!r},{float(v[k])!r},{replicas}")
    path.write_text("\n".join(lines) + "\n")


def _require_keys(config: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise InvalidSpecError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise InvalidSpecError(f"missing keys in {where}: {sorted(missing)}")


def _int(value, name: str, minimum: int | None = None) -> int:
    """A config integer: a JSON integer, or a float with an integral value
    such as 2000.0.  A bool, a fraction or a string is an error, never
    truncated; ``name`` is ``<where>.<key>``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidSpecError(f"{name} must be >= {minimum}, got {value}")
    return value


def _real(value, name: str) -> float:
    """A config real: a JSON number that is not a bool, as a float.  Its
    range is checked where it is used."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise InvalidSpecError(f"{name} must be a number, got {value!r}")


def _name(value, name: str) -> str:
    """A config string, such as an observable name or a bump's sign."""
    if not isinstance(value, str):
        raise InvalidSpecError(f"{name} must be a string, got {value!r}")
    return value


def _load_potential(obj, role: str, where: str) -> PotentialSpec:
    """A potential spec whose ``dim`` and ``params`` go through the typed
    readers: a family's params are reals, except a bump's ``sign``."""
    if isinstance(obj, dict):
        obj = dict(obj)
        if "dim" in obj:
            obj["dim"] = _int(obj["dim"], f"{where}.dim")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InvalidSpecError(f"{where}.params must be a JSON object, got {params!r}")
        readers = {float: _real, str: _name}
        types = param_types(obj.get("family"))
        obj["params"] = {k: readers[types[k]](v, f"{where}.params.{k}") if k in types else v
                         for k, v in params.items()}
    return PotentialSpec.from_json(obj, role=role)


def _load_model(obj: dict) -> ModelConfig:
    _require_keys(obj, {"N", "d", "U", "W"}, {"N", "d", "U"}, "model")
    w = obj.get("W")
    return ModelConfig(
        N=_int(obj["N"], "model.N"),
        d=_int(obj["d"], "model.d"),
        U=_load_potential(obj["U"], "confinement", "model.U"),
        W=_load_potential(w, "interaction", "model.W") if w is not None else None,
    )


def _load_integrator(obj: dict) -> IntegratorConfig:
    _require_keys(obj, {"scheme", "dt"}, set(), "integrator")
    return IntegratorConfig(scheme=obj.get("scheme", "baoab"), dt=_real(obj.get("dt", 1e-2), "integrator.dt"))


def _load_init(obj: dict | None) -> InitSpec:
    if obj is None:
        return InitSpec()
    _require_keys(obj, {"position_offset", "position_spread"}, set(), "init")
    return InitSpec(
        position_offset=_real(obj.get("position_offset", 2.0), "init.position_offset"),
        position_spread=_real(obj.get("position_spread", 1.0), "init.position_spread"),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_certify(config: dict, out_dir: Path, seed: int, mode: str | None, paper_literal: bool) -> int:
    """``mode`` is the --mode flag; it overrides the config's ``mode``."""
    _require_keys(config, {"model", "mode", "kappa", "cls", "rho_marginal"}, {"model"}, "certify config")
    model = _load_model(config["model"])
    user = {key: _real(config[key], f"certify.{key}") for key in ("kappa", "cls", "rho_marginal")
            if config.get(key) is not None}
    mode = mode or config.get("mode", "auto")
    use_split = mode == "split"
    bundle = certifier.assemble_constants(
        model.U,
        model.W,
        kappa_user=user.get("kappa"),
        cls_user=user.get("cls"),
        rho_marginal=user.get("rho_marginal"),
    )
    cert = certifier.certify(
        bundle,
        mode="auto" if use_split else mode,
        use_split=use_split,
        refine=not paper_literal,
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
        {"model", "integrator", "replicas", "horizon", "stride", "observables", "init", "fit"},
        {"model", "integrator", "replicas", "horizon"},
        "simulate config",
    )
    model = _load_model(config["model"])
    integrator = _load_integrator(config["integrator"])
    replicas = _int(config["replicas"], "simulate.replicas")
    horizon = _real(config["horizon"], "simulate.horizon")
    stride = _int(config.get("stride", 1), "simulate.stride")
    observables = config.get("observables", ["mean_position"])
    if not (isinstance(observables, list) and observables and all(isinstance(o, str) for o in observables)):
        raise InvalidSpecError(f"simulate.observables must be a non-empty list of names, got {observables!r}")
    observables = tuple(observables)
    fit_cfg = config.get("fit") or {}
    _require_keys(fit_cfg, {"observable", "equilibrium"}, set(), "fit")
    fit_obs = _name(fit_cfg.get("observable", observables[0]), "fit.observable")
    equilibrium = _real(fit_cfg.get("equilibrium", 0.0), "fit.equilibrium")
    res = simulator.run(
        model,
        integrator,
        replicas=replicas,
        horizon=horizon,
        master_seed=seed,
        init=_load_init(config.get("init")),
        observables=observables,
        stride=stride,
        keep_replica_series=(fit_obs,),
    )
    _write_timeseries_csv(out_dir / "timeseries.csv", res.times, res.means, res.variances, res.n_replicas)
    fit = simulator.fit_decay(
        res.times,
        res.per_replica[fit_obs],
        equilibrium,
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
        "n_steps": int(round(horizon / integrator.dt)),
    }
    _write_json(out_dir / "summary.json", report)
    print(f"simulated {replicas} replicas to T={config['horizon']}; fits: {list(fits)}")
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
    U = _load_potential(tpl["U"], "confinement", "model_template.U")
    W = _load_potential(tpl["W"], "interaction", "model_template.W") if tpl.get("W") else None
    Ns = config["Ns"]
    if not isinstance(Ns, list):
        raise InvalidSpecError(f"sweep.Ns must be a list of integers, got {Ns!r}")
    if not Ns:
        raise InvalidSpecError("sweep.Ns must name at least one N, got []")
    integrator = _load_integrator(config["integrator"])
    observable = _name(config.get("observable", "mean_position"), "sweep.observable")
    table = simulator.n_sweep(
        U,
        W,
        d=_int(tpl["d"], "model_template.d"),
        Ns=[_int(n, f"sweep.Ns[{k}]") for k, n in enumerate(Ns)],
        integrator=integrator,
        replicas=_int(config["replicas"], "sweep.replicas"),
        horizon=_real(config["horizon"], "sweep.horizon"),
        master_seed=seed,
        observable=observable,
        equilibrium_value=_real(config.get("equilibrium", 0.0), "sweep.equilibrium"),
        stride=_int(config.get("stride", 5), "sweep.stride"),
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
        n_lyapunov=_int(config.get("n_lyapunov", 20), "oracle.n_lyapunov", minimum=0),
        n_moment=_int(config.get("n_moment", 10), "oracle.n_moment", minimum=0),
        n_boundedness=_int(config.get("n_boundedness", 10), "oracle.n_boundedness", minimum=0),
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


def _reject_constant(name: str):
    """json.loads reads NaN, Infinity and -Infinity, which are not JSON and
    which no config value may take."""
    raise InvalidSpecError(f"config holds {name}, which is not valid JSON")


def _seed(text: str) -> int:
    """--seed: an integer in [0, 2**64), the key word every Philox stream
    shares (numpy's generators take no negative seed, and a wider one would
    alias a seed in range)."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**64):
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="langcert", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("certify", "simulate", "sweep", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, required=(name != "oracle"),
                        help="JSON config file")
        sp.add_argument("--seed", type=_seed, default=0, help="master seed, in [0, 2**64)")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if name == "certify":
            sp.add_argument("--mode", choices=("thm3", "thm4", "split"), default=None,
                            help="certification route (overrides the config's mode)")
            sp.add_argument("--paper-literal", action="store_true",
                            help="disable coefficient refinement channels")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INTERNAL
    try:
        config = json.loads(args.config.read_text(), parse_constant=_reject_constant) if args.config else {}
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "certify":
            return cmd_certify(config, out_dir, args.seed, args.mode, args.paper_literal)
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
