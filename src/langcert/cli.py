"""Command-line entry point: certification, simulation, sweeps, oracle suites.

Every command reads a JSON config, validates it strictly, and writes
machine-readable reports into the output directory.  Each config section is
a JSON object read through one table of typed readers (``_object``):
unknown keys are rejected, and a key left out takes the library's default.
null means absent only for ``W``, ``init``, ``fit``, ``kappa``, ``cls`` and
``rho_marginal``.  A file that is not UTF-8 JSON, NaN, +-Infinity, numbers
that overflow a float, such as 1e400, integers too long for int() and
nesting too deep to parse are rejected on load.  The reports are a JSON
summary carrying the config echo plus its SHA-256 hash, and CSV time series
for the simulation commands.  Outputs are bit-identical across runs with the
same config and seed.

Exit codes: 0 success / certified, 1 internal error or usage error, 2
missing constant or failed certification, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import InvalidSpecError, LangcertError, MissingConstantError, ResourceCapError

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
    if isinstance(obj, float):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def _header(kind: str, config: dict, seed: int) -> dict:
    """The keys every report starts with."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "config_echo": config,
            "config_hash": _config_hash(config), "seed": seed}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n")


def _write_timeseries_csv(path: Path, times, means, variances, replicas: int) -> None:
    lines = ["time,observable_id,mean,variance,replicas"]
    for name in sorted(means):
        m, v = means[name], variances[name]
        for k in range(len(times)):
            lines.append(f"{float(times[k])!r},{name},{float(m[k])!r},{float(v[k])!r},{replicas}")
    path.write_text("\n".join(lines) + "\n")


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


def _names(value, name: str) -> tuple:
    """The recorded observables: a non-empty list of names."""
    if not (isinstance(value, list) and value and all(isinstance(o, str) for o in value)):
        raise InvalidSpecError(f"{name} must be a non-empty list of names, got {value!r}")
    return tuple(value)


def _ns(value, name: str) -> list:
    """The sweep's particle counts: a non-empty list of integers."""
    if not isinstance(value, list):
        raise InvalidSpecError(f"{name} must be a list of integers, got {value!r}")
    if not value:
        raise InvalidSpecError(f"{name} must name at least one N, got []")
    return [_int(n, f"{name}[{k}]") for k, n in enumerate(value)]


def _as_is(value, name: str):
    """A value that the library checks itself."""
    return value


# the keys for which null means absent
_NULLABLE = {"W", "init", "fit", "kappa", "cls", "rho_marginal"}


def _object(obj, where: str, readers: dict, required=()) -> dict:
    """A config section: a JSON object whose keys are all in ``readers`` and
    include ``required``.  Each key present is read by its reader as
    ``<where>.<key>`` and returned under that key, the library's parameter
    name; an absent key, or a null one in ``_NULLABLE``, stays absent so
    that the library's default applies."""
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(readers)
    if unknown:
        raise InvalidSpecError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InvalidSpecError(f"missing keys in {where}: {sorted(missing)}")
    return {key: readers[key](value, f"{where}.{key}")
            for key, value in obj.items() if not (value is None and key in _NULLABLE)}


def _section(where: str, readers: dict, required=(), make=None):
    """The reader of the section ``where``, which is named by its own key
    (``model.N``, not ``certify.model.N``) and built by the package's public
    class named ``make``, imported when a config is read, or as a dict."""
    def read(obj, _):
        fields = _object(obj, where, readers, required)
        return getattr(sys.modules[__package__], make)(**fields) if make else fields
    return read


def _potential(role: str):
    """The reader of a potential spec in ``role``.  Each param takes its
    family's type: a real, except a bump's ``sign``, a string.  An unknown
    family is named by ``PotentialSpec``."""
    def read(obj, where: str):
        from .potentials import PotentialSpec, param_types

        spec = _object(obj, where, {"family": _as_is, "params": _as_is, "dim": _int}, {"family", "params"})
        types = param_types(spec["family"])
        if types:
            readers = {key: _real if t is float else _name for key, t in types.items()}
            spec["params"] = _object(spec["params"], f"{where}.params", readers)
        return PotentialSpec(**spec, role=role)
    return read


_U, _W = _potential("confinement"), _potential("interaction")
_MODEL = _section("model", {"N": _int, "d": _int, "U": _U, "W": _W}, {"N", "d", "U"}, "ModelConfig")
_INTEGRATOR = _section("integrator", {"scheme": _name, "dt": _real}, (), "IntegratorConfig")
_INIT = _section("init", {"position_offset": _real, "position_spread": _real}, (), "InitSpec")

# each command's config: (readers, required keys)
_CERTIFY = ({"model": _MODEL, "mode": _name, "kappa": _real, "cls": _real, "rho_marginal": _real}, {"model"})
_SIMULATE = (
    {"model": _MODEL, "integrator": _INTEGRATOR, "replicas": _int, "horizon": _real, "stride": _int,
     "observables": _names, "init": _INIT, "fit": _section("fit", {"observable": _name, "equilibrium": _real})},
    {"model", "integrator", "replicas", "horizon"},
)
_SWEEP = (
    {"model_template": _section("model_template", {"d": _int, "U": _U, "W": _W}, {"d", "U"}),
     "Ns": _ns, "integrator": _INTEGRATOR, "replicas": _int, "horizon": _real, "stride": _int,
     "observable": _name, "equilibrium": _real, "init": _INIT},
    {"model_template", "Ns", "integrator", "replicas", "horizon"},
)
_count = functools.partial(_int, minimum=0)  # an oracle battery size
_ORACLE = ({"n_lyapunov": _count, "n_moment": _count, "n_boundedness": _count}, ())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_certify(config: dict, out_dir: Path, seed: int, mode: str | None, paper_literal: bool) -> int:
    """``mode`` is the --mode flag; it overrides the config's ``mode``,
    except that ``split`` keeps the config's theorem."""
    from . import certifier

    user = _object(config, "certify", *_CERTIFY)
    model = user.pop("model")
    config_mode = user.pop("mode", "auto")
    use_split = (mode or config_mode) == "split"
    if mode in (None, "split"):
        mode = "auto" if config_mode == "split" else config_mode
    bundle = certifier.assemble_constants(model.U, model.W, **user)
    cert = certifier.certify(bundle, mode=mode, use_split=use_split, refine=not paper_literal)
    single = None
    if use_split:
        # the split route is requested for comparison: report the
        # single-constant certificate alongside, unless its set is out of range
        try:
            single = certifier.certify(bundle, mode=cert.mode, use_split=False)
        except InvalidSpecError as exc:
            cert.notes.append(f"single certificate omitted: {exc}")
    report = {**_header("certificate", config, seed), "model": model.to_json(), "certificate": cert.to_json()}
    if single is not None:
        report["certificate_single"] = single.to_json()
    _write_json(out_dir / "certificate.json", report)
    if not cert.certified:
        print(f"certification failed: notes={cert.notes}, psd_witness={cert.psd_witness:.3e}")
        return EXIT_MISSING_CONSTANT
    print(f"certified: lambda={cert.lam:.6e} C0={cert.C0:.4f} (mode={cert.mode}, {cert.variant})")
    return EXIT_OK


def cmd_simulate(config: dict, out_dir: Path, seed: int) -> int:
    from . import simulator

    sim = _object(config, "simulate", *_SIMULATE)
    fit_cfg = sim.pop("fit", {})
    fit_obs = fit_cfg.pop("observable", sim.get("observables", simulator.DEFAULT_OBSERVABLES)[0])
    res = simulator.run(**sim, master_seed=seed, keep_replica_series=(fit_obs,))
    _write_timeseries_csv(out_dir / "timeseries.csv", res.times, res.means, res.variances, res.n_replicas)
    fit = simulator.fit_decay(res.times, res.per_replica[fit_obs], observable_id=fit_obs, **fit_cfg)
    fits = {fit_obs: asdict(fit) if fit is not None else None}
    report = {**_header("simulation", config, seed), "decay_fits": fits, "n_steps": res.n_steps}
    _write_json(out_dir / "summary.json", report)
    print(f"simulated {sim['replicas']} replicas to T={config['horizon']}; fits: {list(fits)}")
    return EXIT_OK


def cmd_sweep(config: dict, out_dir: Path, seed: int) -> int:
    import numpy as np  # np.mean: numpy's pairwise sum, not sum()'s

    from . import simulator

    sweep = _object(config, "sweep", *_SWEEP)
    tpl = sweep.pop("model_template")
    table = simulator.n_sweep(tpl["U"], tpl.get("W"), tpl["d"], master_seed=seed, **sweep)
    rows = [{"N": n, "fit": asdict(fit) if fit is not None else None} for n, fit in table]
    rates = [fit.lambda_hat for _, fit in table if fit is not None]
    spread = (max(rates) - min(rates)) / np.mean(rates) if rates else None
    report = {**_header("n_sweep", config, seed), "table": rows, "relative_spread": spread}
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
    from . import oracle

    report = oracle.oracle_suite(**_object(config, "oracle", *_ORACLE), seed=seed)
    report.update(_header("oracle", config, seed))
    _write_json(out_dir / "oracle.json", report)
    n_pass = sum(1 for c in report["oracle_suite"] if c["passed"])
    print(f"oracle suite: {n_pass}/{report['n_checks']} checks passed")
    return EXIT_OK if report["all_passed"] else EXIT_INTERNAL


def _reject_constant(name: str):
    """json.loads reads NaN, Infinity and -Infinity, which are not JSON and
    which no config value may take."""
    raise InvalidSpecError(f"config holds {name}, which is not valid JSON")


def _finite_float(text: str) -> float:
    """json.loads reads a number beyond the float range, such as 1e400, as
    +-inf; a config holds none."""
    value = float(text)
    if math.isinf(value):
        raise InvalidSpecError(f"config holds {text}, which overflows a float")
    return value


def _load_config(path: Path) -> dict:
    """The config at ``path``, UTF-8 JSON.  Besides a JSONDecodeError, the
    parse fails on a byte that is not UTF-8, an integer literal beyond int()'s
    digit limit (both ValueErrors) and nesting past the recursion limit."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"), parse_constant=_reject_constant,
                          parse_float=_finite_float)
    except (InvalidSpecError, json.JSONDecodeError):
        raise
    except (ValueError, RecursionError) as exc:
        raise InvalidSpecError(f"config {path} cannot be read: {exc}") from None


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
                            help="omit the refined coefficient set")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INTERNAL
    try:
        config = _load_config(args.config) if args.config else {}
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
