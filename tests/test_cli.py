import argparse
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from langcert import certifier, cli, oracle, simulator
from langcert.cli import build_parser, main

QUAD_U = {"family": "quadratic", "params": {"coef": 1.0}, "dim": 1}
SMALL_BUMP = {"family": "gaussian_bump", "params": {"amplitude": 0.1, "width": 1.0, "sign": "attractive"}, "dim": 1}
DW_U = {"family": "quartic_double_well", "params": {"quartic": 0.25, "well": 0.5}, "dim": 1}


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def read_all_outputs(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_certify_quadratic_bump_exit_zero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}})
    out = tmp_path / "out"
    rc = main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "1"])
    assert rc == 0
    report = json.loads((out / "certificate.json").read_text())
    cert = report["certificate"]
    assert cert["certified"] is True
    assert cert["lambda"] > 0
    assert cert["schema_version"] == "1"
    assert len(cert["T"]) == 4
    assert report["config_hash"]


def test_certify_force_free_interaction_reports_no_interaction(tmp_path):
    zero_bump = {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "amplitude": 0.0}}
    reports = []
    for name, W in (("zero", zero_bump), ("none", None)):
        cfg = write_config(tmp_path, f"{name}.json", {"model": {"N": 4, "d": 1, "U": DW_U, "W": W}})
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "certificate.json").read_text()))
    zero, none = reports
    assert zero["config_echo"]["model"]["W"] == zero_bump  # the config is echoed as given
    assert zero["model"]["W"] is None
    assert zero["model"] == none["model"] and zero["certificate"] == none["certificate"]


def test_certify_quadratic_interaction_thm3_exit_two(tmp_path):
    w_quad = {"family": "quadratic", "params": {"coef": 0.1}, "dim": 1}
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": w_quad}, "mode": "thm3"})
    rc = main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 2


def test_certify_quadratic_interaction_auto_uses_thm4(tmp_path):
    w_quad = {"family": "quadratic", "params": {"coef": 0.1}, "dim": 1}
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": w_quad}})
    out = tmp_path / "o"
    rc = main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "1"])
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    assert cert["mode"] == "thm4"


def test_readme_model_certifies_thm4_through_the_criterion_transfer(tmp_path, capsys):
    # the transfer on the numeric c_lip does not certify, the one on the
    # super-convexity bound does
    bump = {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "amplitude": 0.02}}
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 8, "d": 1, "U": DW_U, "W": bump}, "rho_marginal": 1.0})
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--mode", "thm4"]) == 0
    assert capsys.readouterr().out.startswith("certified: ")
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())["certificate"]
    assert (cert["mode"], cert["certified"], cert["inputs"]["provenance"]["C_LS"]) == ("thm4", True, "criterion-derived")
    assert cert["inputs"]["C_LS"] == pytest.approx(1.2051194594523, rel=1e-12)
    assert cert["lambda"] == pytest.approx(3.935e-8, rel=1e-3)


def test_shallow_double_well_fails_certification_without_overflow(tmp_path, capsys):
    # e^{cR/4} of the convexity fit (c R / 4 = 770) overflows a float: the
    # super-convexity route is skipped, C_LS comes from the numeric c_lip,
    # and kappa from dissipativity is a numeric estimate of 5.6e-215
    U = {"family": "quartic_double_well", "params": {"quartic": 0.001, "well": 1.4}, "dim": 1}
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 8, "d": 1, "U": U, "W": None}, "rho_marginal": 1.0})
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out.startswith("certification failed: ")
    inputs = json.loads((tmp_path / "o" / "certificate.json").read_text())["certificate"]["inputs"]
    assert inputs["c"] * inputs["R_conv"] / 4 > 710
    assert (inputs["C_LS"], inputs["provenance"]["C_LS"]) == (1.0, "numeric-estimate")
    assert inputs["kappa"] == pytest.approx(5.6e-215, rel=1e-3)


def test_certify_split_mode_reports_both(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": DW_U, "W": SMALL_BUMP}})
    out = tmp_path / "o"
    rc = main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "1", "--mode", "split"])
    assert rc == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["certificate"]["variant"].startswith("split")
    assert "certificate_single" in report
    assert report["certificate_single"]["lambda"] > 0


@pytest.mark.parametrize("W, mode, lam, C0", [
    ({"family": "gaussian_bump", "params": {"amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, "dim": 1},
     "thm3", 1.7195e-3, 34.03),
    ({"family": "quadratic", "params": {"coef": 0.5}, "dim": 1}, "thm4", 1.6732e-3, 34.78),
], ids=["repulsive-bump", "quadratic-thm4"])
def test_certify_split_takes_case1_for_a_linear_confinement(tmp_path, W, mode, lam, C0):
    # a quadratic U has K1 = 0, so M1 = 0; the split route used to refuse it
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 8, "d": 1, "U": QUAD_U, "W": W}})
    out = tmp_path / "o"
    assert main(["certify", "--config", str(cfg), "--out", str(out), "--mode", "split"]) == 0
    report = json.loads((out / "certificate.json").read_text())
    cert, single = report["certificate"], report["certificate_single"]
    assert (cert["M1"], cert["variant"], cert["mode"], cert["certified"]) == (0.0, "split_case1", mode, True)
    assert (cert["lambda"], cert["C0"]) == (pytest.approx(lam, rel=1e-4), pytest.approx(C0, rel=1e-3))
    assert cert["lambda"] > 50 * single["lambda"]


def test_certify_split_keeps_the_configs_theorem(tmp_path):
    # --mode split discarded the config's "mode": "thm4" and reported thm3
    bump = {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "amplitude": 0.02}}
    config = {"model": {"N": 8, "d": 1, "U": DW_U, "W": bump}, "mode": "thm4", "rho_marginal": 1.0}
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--mode", "split"]) == 0
    report = json.loads((tmp_path / "o" / "certificate.json").read_text())
    cert, single = report["certificate"], report["certificate_single"]
    assert (cert["mode"], cert["variant"], cert["certified"]) == ("thm4", "split_case2", True)
    assert cert["lambda"] == pytest.approx(7.2254e-11, rel=1e-4)
    assert (single["mode"], single["variant"]) == ("thm4", "single")
    assert single["lambda"] == pytest.approx(3.935e-8, rel=1e-3)
    # --mode thm3 still overrides the config
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "t"), "--mode", "thm3"]) == 0
    assert json.loads((tmp_path / "t" / "certificate.json").read_text())["certificate"]["mode"] == "thm3"


@pytest.mark.parametrize("flags", [[], ["--paper-literal"]], ids=["refined", "paper-literal"])
def test_certify_split_omits_the_single_scale_sets_out_of_range(tmp_path, flags):
    # M = 1.86e111 overflows the single and the refined set, which a split run
    # only reports beside its certificate: they are omitted with a note, where
    # the run exited 1 naming M
    U = {"family": "quartic_double_well", "params": {"quartic": 1e60, "well": 0.5}, "dim": 1}
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 8, "d": 1, "U": U, "W": None}})
    out = tmp_path / "o"
    assert main(["certify", "--config", str(cfg), "--out", str(out), "--mode", "split", *flags]) == 0
    report = json.loads((out / "certificate.json").read_text())
    cert = report["certificate"]
    assert (cert["variant"], cert["certified"]) == ("split_case2", True)
    assert cert["lambda"] == pytest.approx(1.0494e-95, rel=1e-4)
    assert "certificate_single" not in report and "refined" not in cert
    too_large = "coefficients leave the float range (overflow, or b^2 >= ac): M = 1.8626451529562473e+111 too large"
    assert cert["notes"] == [f"refined set omitted: {too_large}"] * (not flags) + [
        f"single certificate omitted: {too_large}"]
    # the single route reports that set itself, so it still exits 1
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "s"), *flags]) == 1


@pytest.mark.parametrize("flags, decisions", [(["--mode", "split"], 3), ([], 2), (["--paper-literal"], 1)],
                         ids=["split", "default", "paper-literal"])
def test_certify_decides_each_coefficient_set_once(tmp_path, monkeypatch, flags, decisions):
    # the split set, the refined set and the split run's single certificate,
    # or the single set and the refined set, or the single set alone
    calls = []
    holds = certifier.coercivity_holds
    monkeypatch.setattr(certifier, "coercivity_holds", lambda *args: calls.append(args) or holds(*args))
    bump = {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "amplitude": 0.02}}
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 8, "d": 1, "U": DW_U, "W": bump}})
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 0
    assert len(calls) == decisions


def test_certify_paper_literal_disables_refinement(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--config", str(cfg), "--out", str(out1), "--paper-literal"]) == 0
    assert main(["certify", "--config", str(cfg), "--out", str(out2)]) == 0
    lit = json.loads((out1 / "certificate.json").read_text())["certificate"]
    ref = json.loads((out2 / "certificate.json").read_text())["certificate"]
    assert "refined" not in lit
    assert "refined" in ref
    assert lit["lambda"] == ref["lambda"]  # literal channel identical


def test_simulate_writes_csv_and_summary(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U, "W": None},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 64,
        "horizon": 2.0,
        "stride": 10,
        "observables": ["mean_position", "kinetic_energy"],
        "fit": {"observable": "mean_position", "equilibrium": 0.0},
    })
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "9"])
    assert rc == 0
    csv = (out / "timeseries.csv").read_text().splitlines()
    assert csv[0] == "time,observable_id,mean,variance,replicas"
    assert any("kinetic_energy" in line for line in csv[1:])
    for line in csv[1:]:  # numbers, not numpy scalar reprs
        t, name, mean, var, replicas = line.split(",")
        assert name in ("mean_position", "kinetic_energy")
        float(t), float(mean), float(var)
        assert int(replicas) == 64
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "simulation"
    assert summary["n_steps"] == 200


def test_simulate_fits_observable_not_in_observables(tmp_path):
    # per-replica series are kept for the fit observable whether or not it is
    # recorded, so the fit is the one a run recording it would give
    base = {
        "model": {"N": 2, "d": 1, "U": QUAD_U, "W": None},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 64,
        "horizon": 2.0,
        "stride": 10,
        "fit": {"observable": "mean_position", "equilibrium": 0.0},
    }
    fits = []
    for name, observables in (("a", ["kinetic_energy"]), ("b", ["mean_position", "kinetic_energy"])):
        cfg = write_config(tmp_path, f"{name}.json", {**base, "observables": observables})
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        fits.append(json.loads((out / "summary.json").read_text())["decay_fits"])
    assert list(fits[0]) == ["mean_position"]
    assert fits[0] == fits[1]


def test_simulate_unknown_fit_observable_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 4,
        "horizon": 0.1,
        "fit": {"observable": "bogus"},
    })
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown observable 'bogus'" in capsys.readouterr().err


def test_simulate_rejects_unknown_keys(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 4,
        "horizon": 0.1,
        "bogus_knob": 1,
    })
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    # friction is fixed by the model, so the integrator block has no such key
    cfg = write_config(tmp_path, "f.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U},
        "integrator": {"scheme": "baoab", "dt": 0.01, "friction": 2.0},
        "replicas": 4,
        "horizon": 0.1,
    })
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_simulate_rejects_empty_observables(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 4,
        "horizon": 0.1,
        "observables": [],
    })
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_simulate_resource_cap_exit_three(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U},
        "integrator": {"scheme": "baoab", "dt": 0.001},
        "replicas": 1,
        "horizon": 2e6,
    })
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_sweep_writes_one_row_per_N(tmp_path):
    cfg = write_config(tmp_path, "w.json", {
        "model_template": {"d": 1, "U": QUAD_U, "W": None},
        "Ns": [2, 4],
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 128,
        "horizon": 6.0,
        "stride": 5,
    })
    out = tmp_path / "o"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert rc == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert [row["N"] for row in sweep["table"]] == [2, 4]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("N,lambda_hat")
    assert len(lines) == 3


def test_oracle_command_defaults(tmp_path):
    out = tmp_path / "o"
    rc = main(["oracle", "--out", str(out), "--seed", "0"])
    assert rc == 0
    rep = json.loads((out / "oracle.json").read_text())
    assert rep["all_passed"] is True


def test_reproducibility_bit_identical_outputs(tmp_path):
    cfg_payload = {
        "model": {"N": 3, "d": 1, "U": DW_U, "W": SMALL_BUMP},
        "integrator": {"scheme": "euler_maruyama", "dt": 0.01},
        "replicas": 32,
        "horizon": 1.0,
        "stride": 5,
        "observables": ["mean_position", "pair_distance_second_moment"],
        "fit": {"observable": "mean_position", "equilibrium": 0.0},
    }
    cfg = write_config(tmp_path, "r.json", cfg_payload)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "77"]) == 0
        outs.append(read_all_outputs(out))
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], f"{name} differs between runs"


def test_reproducibility_certify_and_oracle(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}})
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        assert main(["oracle", "--out", str(out), "--seed", "5"]) == 0
        blobs.append(read_all_outputs(out))
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name]


def test_config_echo_round_trip(tmp_path):
    payload = {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}}
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["config_echo"] == payload


def test_bad_config_file_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_certificate_identical_across_N(tmp_path):
    # the certificate is a pure function of the potentials: configs that
    # differ only in N produce byte-identical certificate sections
    certs = []
    for N in (2, 1024):
        cfg = write_config(tmp_path, f"c{N}.json",
                           {"model": {"N": N, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}})
        out = tmp_path / f"o{N}"
        assert main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        certs.append(json.loads((out / "certificate.json").read_text())["certificate"])
    assert certs[0] == certs[1]


def test_certify_mode_flag_overrides_config_mode(tmp_path):
    # the config's mode applies only when --mode is absent
    model = {"N": 4, "d": 1, "U": DW_U, "W": SMALL_BUMP}
    cfg = write_config(tmp_path, "c.json", {"model": model, "mode": "thm3"})
    out = tmp_path / "split"
    assert main(["certify", "--config", str(cfg), "--out", str(out), "--mode", "split"]) == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["certificate"]["variant"].startswith("split")
    assert "certificate_single" in report

    cfg = write_config(tmp_path, "q.json", {"model": {**model, "U": QUAD_U}, "mode": "thm3"})
    for flag, want in ((["--mode", "thm4"], "thm4"), ([], "thm3")):
        out = tmp_path / f"q{want}"
        assert main(["certify", "--config", str(cfg), "--out", str(out), *flag]) == 0
        assert json.loads((out / "certificate.json").read_text())["certificate"]["mode"] == want


def test_usage_errors_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": QUAD_U}})
    for argv in (
        [],
        ["certify"],  # --config is required
        ["certify", "--config", str(cfg), "--bogus"],
        ["certify", "--config", str(cfg), "--mode", "thm5"],
        ["simulate", "--config", str(cfg), "--mode", "split"],  # certify-only flags
        ["sweep", "--config", str(cfg), "--paper-literal"],
        ["oracle", "--mode", "thm3"],
    ):
        assert main(argv) == 1, argv
        assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert main(["certify", "--help"]) == 0
    assert "--paper-literal" in capsys.readouterr().out


def test_seed_outside_u64_exit_one(tmp_path, capsys):
    # a negative seed used to crash the oracle and alias seed 2**64 - 1 in
    # simulate; 2**64 aliased seed 0
    cfg = write_config(tmp_path, "s.json", {
        "model": {"N": 2, "d": 1, "U": QUAD_U},
        "integrator": {"scheme": "baoab", "dt": 0.01},
        "replicas": 4, "horizon": 0.1,
    })
    for command in (["oracle"], ["simulate", "--config", str(cfg)]):
        for seed in ("-1", str(2**64), "1.5", "seven"):
            out = tmp_path / "o"
            assert main([*command, "--out", str(out), "--seed", seed]) == 1, (command, seed)
            err = capsys.readouterr().err
            assert f"argument --seed: seed must be an integer in [0, 2**64), got '{seed}'" in err
            assert not out.exists() or not any(out.iterdir())
    out = tmp_path / "top"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(2**64 - 1)]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 2**64 - 1


def test_simulate_negative_or_infinite_horizon_exit_one(tmp_path, capsys):
    # -1.0 used to die with an IndexError, 1e400 (read as inf) with an
    # OverflowError; 1e400 is now rejected on load
    for horizon, message in (("-1.0", "horizon must be finite and >= 0, got -1.0"),
                             ("1e400", "config holds 1e400, which overflows a float")):
        cfg = write_config(tmp_path, "s.json", {
            "model": {"N": 2, "d": 1, "U": QUAD_U},
            "integrator": {"scheme": "baoab", "dt": 0.01},
            "replicas": 4, "horizon": "HORIZON",
        })
        cfg.write_text(cfg.read_text().replace('"HORIZON"', horizon))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1, horizon
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(out.iterdir())


def test_nan_and_infinity_in_config_exit_one(tmp_path, capsys):
    # json reads NaN and +-Infinity; a config holding one is rejected on load
    sim = {"model": {"N": 2, "d": 1, "U": QUAD_U}, "integrator": {"scheme": "baoab", "dt": 0.01},
           "replicas": 4, "horizon": 0.1}
    configs = {
        "certify": ({"model": {"N": 4, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}}, "kappa"),
        "simulate": (sim, "horizon"),
        "sweep": ({"model_template": {"d": 1, "U": QUAD_U}, "Ns": [2, 4],
                   "integrator": {"scheme": "baoab", "dt": 0.01}, "replicas": 4, "horizon": 0.1},
                  "horizon"),
        "oracle": ({}, "n_lyapunov"),
    }
    for command, (config, key) in configs.items():
        for value, name in ((math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")):
            cfg = write_config(tmp_path, f"{command}.json", {**config, key: value})
            assert name in cfg.read_text()
            out = tmp_path / f"{command}-{name}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1, (command, name)
            assert f"error: config holds {name}, which is not valid JSON" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe\x00{", "'utf-8' codec can't decode byte 0xff"),
    (b'{"model": {"N": 1' + b"0" * 5000 + b"}}", "Exceeds the limit (4300 digits)"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "5001-digit-int", "deep-nesting"])
def test_unreadable_config_exit_one(tmp_path, capsys, data, message):
    # each escaped main as a UnicodeDecodeError, ValueError or RecursionError
    cfg = tmp_path / "c.json"
    cfg.write_bytes(data)
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} cannot be read: ") and message in err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert not out.exists()


SIM = {"model": {"N": 2, "d": 1, "U": QUAD_U}, "integrator": {"scheme": "baoab", "dt": 0.01},
       "replicas": 4, "horizon": 0.1}
SWEEP = {"model_template": {"d": 1, "U": QUAD_U}, "Ns": [2, 4],
         "integrator": {"scheme": "baoab", "dt": 0.01}, "replicas": 4, "horizon": 0.1}


def test_overflowing_number_in_config_exit_one(tmp_path, capsys):
    # json reads 1e400 as inf: a coef died in _config_hash, and an init offset
    # first wrote a timeseries.csv of inf and nan
    configs = {
        "certify": '{"model": {"N": 4, "d": 1, "U": {"family": "quadratic", "params": {"coef": 1e400}, "dim": 1}}}',
        "simulate": json.dumps(SIM)[:-1] + ', "init": {"position_offset": 1e400}}',
        "sweep": json.dumps(SWEEP)[:-1] + ', "equilibrium": -1e400}',
        "oracle": '{"n_moment": 1e400}',
    }
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(text)
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1, command
        number = "-1e400" if command == "sweep" else "1e400"
        assert f"error: config holds {number}, which overflows a float" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("simulate", {**SIM, "replicas": 1e300}),
    ("simulate", {**SIM, "replicas": 2**62}),
    ("simulate", {**SIM, "model": {**SIM["model"], "N": 2**62}}),
    ("sweep", {**SWEEP, "Ns": [2, 2**62]}),
], ids=["replicas-1e300", "replicas-2**62", "N-2**62", "sweep-N-2**62"])
def test_counts_past_the_stream_keys_exit_one(tmp_path, capsys, command, config):
    # each died in np.empty with a ValueError traceback; the 31-bit rule of
    # the stream keys now applies before anything is allocated
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: replica and particle label must fit in 31 bits\n"
    assert not any(out.iterdir())


def _assert_rejected(tmp_path, capsys, command, cases):
    # each (config, message) exits 1 naming the key and writes no output file
    for k, (config, message) in enumerate(cases):
        cfg = write_config(tmp_path, f"{command}{k}.json", config)
        out = tmp_path / f"{command}{k}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1, message
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(out.iterdir()), message


def test_certify_bad_numeric_values_exit_one(tmp_path, capsys):
    # "8" used to escape main as a ValueError, 8.5 was truncated to 8, and
    # true read as N = 1; a string kappa died in a TypeError
    model = {"N": 8, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}
    _assert_rejected(tmp_path, capsys, "certify", [
        ({"model": {**model, "N": "8"}}, "model.N must be an integer, got '8'"),
        ({"model": {**model, "N": 8.5}}, "model.N must be an integer, got 8.5"),
        ({"model": {**model, "N": True}}, "model.N must be an integer, got True"),
        ({"model": {**model, "d": "1"}}, "model.d must be an integer, got '1'"),
        ({"model": {**model, "U": {**QUAD_U, "dim": 1.5}}}, "model.U.dim must be an integer, got 1.5"),
        ({"model": model, "kappa": "0.5"}, "certify.kappa must be a number, got '0.5'"),
        # kappa = -1 used to certify a negative lambda, kappa = 0 lambda = 0,
        # and cls = -1 exited 2 as a missing constant
        ({"model": model, "mode": "thm3", "kappa": -1.0}, "kappa must be finite and > 0, got -1.0"),
        ({"model": model, "kappa": 0}, "kappa must be finite and > 0, got 0.0"),
        ({"model": model, "mode": "thm4", "cls": -1.0}, "cls must be finite and > 0, got -1.0"),
        ({"model": model, "rho_marginal": 0.0}, "rho_marginal must be finite and > 0, got 0.0"),
        ({"model": model, "rho_marginal": -2}, "rho_marginal must be finite and > 0, got -2.0"),
    ])


def test_simulate_bad_numeric_values_exit_one(tmp_path, capsys):
    # strings used to escape main as ValueError tracebacks; 2.7 replicas ran 2
    # and true ran 1, while summary.json echoed the config value
    _assert_rejected(tmp_path, capsys, "simulate", [
        ({**SIM, "horizon": "ten"}, "simulate.horizon must be a number, got 'ten'"),
        ({**SIM, "horizon": 10**400}, "simulate.horizon must be a number, got 1000"),  # no float
        ({**SIM, "integrator": {"dt": "0.01"}}, "integrator.dt must be a number, got '0.01'"),
        ({**SIM, "init": {"position_spread": [1.0]}}, "init.position_spread must be a number, got [1.0]"),
        ({**SIM, "fit": {"equilibrium": False}}, "fit.equilibrium must be a number, got False"),
        ({**SIM, "replicas": 2.7}, "simulate.replicas must be an integer, got 2.7"),
        ({**SIM, "replicas": True}, "simulate.replicas must be an integer, got True"),
        ({**SIM, "stride": 1.5}, "simulate.stride must be an integer, got 1.5"),
        ({**SIM, "model": {**SIM["model"], "N": "2"}}, "model.N must be an integer, got '2'"),
    ])
    # an integral float reads as that integer
    outs = []
    for k, (replicas, stride) in enumerate(((4, 2), (4.0, 2.0))):
        cfg = write_config(tmp_path, f"int{k}.json", {**SIM, "replicas": replicas, "stride": stride})
        out = tmp_path / f"int{k}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "timeseries.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_bad_numeric_values_exit_one(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, "sweep", [
        ({**SWEEP, "Ns": ["2", 4]}, "sweep.Ns[0] must be an integer, got '2'"),
        ({**SWEEP, "Ns": [2, 4.5]}, "sweep.Ns[1] must be an integer, got 4.5"),
        ({**SWEEP, "Ns": 4}, "sweep.Ns must be a list of integers, got 4"),
        ({**SWEEP, "model_template": {"d": True, "U": QUAD_U}}, "model_template.d must be an integer, got True"),
        ({**SWEEP, "replicas": 4.5}, "sweep.replicas must be an integer, got 4.5"),
        ({**SWEEP, "stride": False}, "sweep.stride must be an integer, got False"),
        ({**SWEEP, "horizon": "ten"}, "sweep.horizon must be a number, got 'ten'"),
        ({**SWEEP, "equilibrium": None}, "sweep.equilibrium must be a number, got None"),
    ])


def test_oracle_bad_battery_sizes_exit_one(tmp_path, capsys):
    # -3 used to run no Lyapunov checks at all, 2.5 ran 2
    _assert_rejected(tmp_path, capsys, "oracle", [
        ({"n_lyapunov": -3}, "oracle.n_lyapunov must be >= 0, got -3"),
        ({"n_moment": 2.5}, "oracle.n_moment must be an integer, got 2.5"),
        ({"n_boundedness": True}, "oracle.n_boundedness must be an integer, got True"),
        ({"n_lyapunov": "20"}, "oracle.n_lyapunov must be an integer, got '20'"),
    ])


def test_potential_params_read_as_numbers(tmp_path, capsys):
    # "x" used to escape main as a TypeError traceback and true certified as
    # coef 1; a bump's sign is a string
    bump = {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "amplitude": "0.1"}}
    _assert_rejected(tmp_path, capsys, "certify", [
        ({"model": {"N": 8, "d": 1, "U": {**QUAD_U, "params": {"coef": "x"}}}},
         "model.U.params.coef must be a number, got 'x'"),
        ({"model": {"N": 8, "d": 1, "U": {**QUAD_U, "params": {"coef": True}}}},
         "model.U.params.coef must be a number, got True"),
        ({"model": {"N": 8, "d": 1, "U": QUAD_U, "W": bump}}, "model.W.params.amplitude must be a number, got '0.1'"),
        ({"model": {"N": 8, "d": 1, "U": QUAD_U, "W": {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "sign": 1}}}},
         "model.W.params.sign must be a string, got 1"),
        ({"model": {"N": 8, "d": 1, "U": {**QUAD_U, "family": ["quadratic"]}}}, "unknown family ['quadratic']"),
        ({"model": {"N": 8, "d": 1, "U": {**QUAD_U, "params": "ab"}}}, "model.U.params must be a JSON object, got 'ab'"),
    ])
    _assert_rejected(tmp_path, capsys, "sweep", [
        ({**SWEEP, "model_template": {"d": 1, "U": {**QUAD_U, "params": {"coef": [1.0]}}}},
         "model_template.U.params.coef must be a number, got [1.0]"),
    ])
    # an integer param certifies as its float
    certs = []
    for k, coef in enumerate((1, 1.0)):
        cfg = write_config(tmp_path, f"coef{k}.json", {"model": {"N": 8, "d": 1, "U": {**QUAD_U, "params": {"coef": coef}},
                                                                 "W": SMALL_BUMP}})
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / f"coef{k}")]) == 0
        certs.append(json.loads((tmp_path / f"coef{k}" / "certificate.json").read_text())["certificate"])
    assert certs[0] == certs[1]


_NO_PAIR = "no feasible Lyapunov pair found"
_OUT_OF_RANGE = "params {} are out of float range: its closed-form bounds cannot be evaluated"
_HUGE_M = "coefficients leave the float range (overflow, or b^2 >= ac): M = {} too large"


@pytest.mark.parametrize("U, W, message", [
    ({**QUAD_U, "params": {"coef": 1e300}}, None, _NO_PAIR),
    ({**DW_U, "params": {"quartic": 1e200, "well": 0.5}}, None, _NO_PAIR),
    # the profile overflows in the Lyapunov offsets: that used to print three RuntimeWarnings first
    ({**DW_U, "params": {"quartic": 1, "well": 1e300}}, None, _NO_PAIR),
    (QUAD_U, {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "amplitude": 1e300}}, _NO_PAIR),
    (QUAD_U, {**SMALL_BUMP, "params": {**SMALL_BUMP["params"], "width": 1e-300}},
     "gaussian_bump " + _OUT_OF_RANGE.format({"amplitude": 0.1, "width": 1e-300, "sign": "attractive"})),
    (QUAD_U, {"family": "cosine", "params": {"amplitude": 1.0, "frequency": 1e300}, "dim": 1},
     "cosine " + _OUT_OF_RANGE.format({"amplitude": 1.0, "frequency": 1e300})),
    # an infinite char_length made the convexity fit's random pairs overflow
    ({**DW_U, "params": {"quartic": 5e-324, "well": 0.0}}, None,
     "quartic_double_well " + _OUT_OF_RANGE.format({"quartic": 5e-324, "well": 0.0})),
    # M**3 overflowed in the single coefficient set
    ({**DW_U, "params": {"quartic": 1e60, "well": 0.5}}, None, _HUGE_M.format("1.8626451529562473e+111")),
    # b underflowed, and the message named b^2 >= ac but not M
    ({**DW_U, "params": {"quartic": 1e55, "well": 0.5}}, None, _HUGE_M.format("1.8626451529562482e+101")),
], ids=["quadratic-coef", "quartic", "well", "bump-amplitude", "bump-width", "cosine-frequency", "quartic-denormal",
        "quartic-M-overflow", "quartic-M-underflow"])
def test_params_at_the_float_range_exit_one(tmp_path, capsys, U, W, message):
    # each of these escaped main as an OverflowError or ZeroDivisionError,
    # or exited 1 without naming the input that was too large
    _assert_rejected(tmp_path, capsys, "certify", [({"model": {"N": 8, "d": 1, "U": U, "W": W}}, message)])


def test_flat_quadratic_certifies_with_an_unconverged_c_lip(tmp_path, capsys):
    # beta**2 underflows in the c_lip tail bound: the doubling runs out and
    # c_lip comes back as the unconverged +inf flag
    cfg = write_config(tmp_path, "flat.json", {"model": {"N": 8, "d": 1, "U": {**QUAD_U, "params": {"coef": 1e-300}}}})
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "flat")]) == 0
    assert capsys.readouterr().out.startswith("certified: ")
    constants = json.loads((tmp_path / "flat" / "certificate.json").read_text())["certificate"]["inputs"]
    assert (constants["c_lip"], constants["c_lip_converged"]) == ("inf", False)


def test_zero_rate_does_not_certify(tmp_path, capsys):
    # kappa = coef = 5e-324 gives lambda = 0.0, which used to certify
    cfg = write_config(tmp_path, "zero.json", {"model": {"N": 2, "d": 1, "U": {**QUAD_U, "params": {"coef": 5e-324}}}})
    out = tmp_path / "zero"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "lambda = 0.0 is not a positive finite rate" in capsys.readouterr().out
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    assert (cert["lambda"], cert["certified"]) == (0.0, False)


def test_sweep_rejects_empty_Ns(tmp_path, capsys):
    # [] used to print "relative spread None" and exit 0
    _assert_rejected(tmp_path, capsys, "sweep", [({**SWEEP, "Ns": []}, "sweep.Ns must name at least one N, got []")])


def test_simulate_observables_must_be_a_list_of_names(tmp_path, capsys):
    # a bare string used to split into characters: "unknown observable 'm'",
    # and a list as the fitted observable escaped main as a TypeError
    message = "simulate.observables must be a non-empty list of names, got "
    _assert_rejected(tmp_path, capsys, "simulate", [
        ({**SIM, "observables": "mean_position"}, message + "'mean_position'"),
        ({**SIM, "observables": []}, message + "[]"),
        ({**SIM, "observables": [["mean_position"]]}, message + "[['mean_position']]"),
        ({**SIM, "fit": {"observable": ["mean_position"]}}, "fit.observable must be a string, got ['mean_position']"),
    ])
    _assert_rejected(tmp_path, capsys, "sweep", [
        ({**SWEEP, "observable": ["mean_position"]}, "sweep.observable must be a string, got ['mean_position']"),
    ])


def _readme_usage() -> dict:
    """The README's ``langcert <command> ...`` lines: command -> {flag: choices or None}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = {}
    for line in readme.splitlines():
        words = line.replace("[", " ").replace("]", " ").split()
        if len(words) < 2 or words[0] != "langcert":
            continue
        flags = {}
        for k, word in enumerate(words):
            if word.startswith("--"):
                value = words[k + 1] if k + 1 < len(words) else ""
                flags[word] = set(value.split("|")) if "|" in value else None
        usage[words[1]] = flags
    return usage


def test_readme_usage_matches_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    usage = _readme_usage()
    assert set(usage) == set(sub.choices) == {"certify", "simulate", "sweep", "oracle"}
    for name, parser in sub.choices.items():
        actual = {opt: set(a.choices) if a.choices else None
                  for a in parser._actions for opt in a.option_strings if opt.startswith("--")}
        actual.pop("--help")
        assert usage[name] == actual, name


CERTIFY = {"model": {"N": 4, "d": 1, "U": QUAD_U, "W": SMALL_BUMP}}
# command -> (a valid config, the paths of its sections)
SECTIONS = {
    "certify": (CERTIFY, [(), ("model",), ("model", "U"), ("model", "W")]),
    "simulate": (SIM, [(), ("model",), ("model", "U"), ("model", "W"), ("integrator",), ("init",), ("fit",)]),
    "sweep": (SWEEP, [(), ("model_template",), ("model_template", "U"), ("model_template", "W"),
                      ("integrator",), ("init",)]),
    "oracle": ({}, [()]),
}


def _replace(config, path, value):
    """``config`` with the section at ``path`` replaced by ``value``."""
    if not path:
        return value
    return {**config, path[0]: _replace(config.get(path[0], {}), path[1:], value)}


@pytest.mark.parametrize("value", [5, [], "x"], ids=["number", "list", "string"])
@pytest.mark.parametrize("command,path", [pytest.param(c, p, id=f"{c}:{'.'.join(p) or c}")
                                          for c, (_, paths) in SECTIONS.items() for p in paths])
def test_section_not_an_object_exit_one(tmp_path, capsys, command, path, value):
    # a model or integrator of 5, an init of [] or a whole config of 5 used
    # to escape main as a traceback; a fit of [] read as the default fit
    cfg = write_config(tmp_path, "c.json", _replace(SECTIONS[command][0], path, value))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    where = ".".join(path) or command
    assert f"error: {where} must be a JSON object, got {value!r}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_rejects_falsy_interaction(tmp_path, capsys):
    # a W of {}, 0 or false used to be dropped as if it were null
    template = SWEEP["model_template"]
    _assert_rejected(tmp_path, capsys, "sweep", [
        ({**SWEEP, "model_template": {**template, "W": {}}}, "missing keys in model_template.W: ['family', 'params']"),
        ({**SWEEP, "model_template": {**template, "W": 0}}, "model_template.W must be a JSON object, got 0"),
        ({**SWEEP, "model_template": {**template, "W": False}}, "model_template.W must be a JSON object, got False"),
    ])


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_configs() -> dict:
    """The README's example configs, // comment lines stripped: name -> config."""
    block = _readme().split("Example configs:\n\n```json\n", 1)[1].split("```", 1)[0]
    parts = re.split(r"^// (\w+)\.json\n", block, flags=re.MULTILINE)
    return {name: json.loads(text) for name, text in zip(parts[1::2], parts[2::2])}


def test_readme_configs_read_by_section_tables():
    # the README's example configs pass the CLI's section tables (nothing
    # runs), and its battery sizes are oracle_suite's
    configs = _readme_configs()
    tables = {"certify": cli._CERTIFY, "simulate": cli._SIMULATE, "sweep": cli._SWEEP}
    assert configs.keys() == tables.keys()
    for command, config in configs.items():
        cli._object(config, command, *tables[command])

    sizes = re.search(r"battery sizes\s+\((\d+), (\d+), (\d+)\)", _readme())
    defaults = inspect.signature(oracle.oracle_suite).parameters
    assert tuple(map(int, sizes.groups())) == tuple(
        defaults[key].default for key in ("n_lyapunov", "n_moment", "n_boundedness")) == (20, 10, 10)


def test_readme_library_quick_start_runs(capsys):
    # the "Quick start (library)" block runs as written, through the public names
    block = _readme().split("## Quick start (library)\n\n```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    cert, fit = scope["cert"], scope["fit"]
    assert cert.certified
    assert math.isfinite(fit.lambda_hat) and fit.ci_low <= fit.lambda_hat <= fit.ci_high


def _src_env() -> dict:
    """This environment, with this checkout's src/ first on the path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                         os.environ.get("PYTHONPATH", "")])}


_SCIPY_MODULES = """
import sys
from langcert import cli
loaded = lambda: sorted(name for name in sys.modules if name.startswith("scipy"))
cli.build_parser()
# the simulator imports these only where it forks workers or starts threads
assert "multiprocessing" not in sys.modules and "concurrent.futures" not in sys.modules
print(loaded())
assert cli.main(["certify", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(loaded())
"""


def test_certify_loads_no_scipy(tmp_path):
    # certify runs on numpy alone: scipy loads only for simulate, sweep and
    # oracle, and neither multiprocessing nor concurrent.futures loads with the CLI
    cfg = write_config(tmp_path, "certify.json", _readme_configs()["certify"])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, str(cfg), str(tmp_path / "out")], env=_src_env(),
                          capture_output=True, text=True, check=True)
    before, verdict, after = proc.stdout.splitlines()
    assert verdict.startswith("certified: ")
    assert before == after == "[]"  # after importing the CLI and after certify


_SIMULATE_THREADS = """
import sys, threading
from langcert import cli
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self.name) or start(self)
assert cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(started, threading.active_count(), "multiprocessing" in sys.modules)
"""


def test_simulate_starts_no_thread(tmp_path):
    # the replica slabs and the bootstrap moments advance in forked workers:
    # a README simulate, at 2000 replicas so that both still split, starts
    # no thread in this process.  (scipy.special loads concurrent.futures
    # through numpy.testing, so whether that module is loaded shows nothing.)
    config = {**_readme_configs()["simulate"], "replicas": 2000}
    cfg = write_config(tmp_path, "simulate.json", config)
    proc = subprocess.run([sys.executable, "-c", _SIMULATE_THREADS, str(cfg), str(tmp_path / "out")], env=_src_env(),
                          capture_output=True, text=True, check=True)
    forks = simulator._THREADS > 1 and "fork" in multiprocessing.get_all_start_methods()
    assert proc.stdout.splitlines()[-1] == f"[] 1 {forks}"


_LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""
_CLI = ("from langcert import cli; cli.build_parser(); "
        "assert cli.main([sys.argv[2], '--config', sys.argv[3], '--out', sys.argv[4]]) == 0")
_SIMULATING = {"cli", "errors", "potentials", "meanfield", "simulator"}
# entry point -> (the code run in a fresh process, the langcert layers it
# loads, modules that load, modules that do not)
_IMPORT_CONTRACT = {
    "import langcert": ("import langcert", set(), set(), {"numpy"}),
    "cli": ("from langcert import cli; cli.build_parser()", {"cli", "errors"}, set(), {"numpy"}),
    "certify": (_CLI, {"cli", "errors", "potentials", "meanfield", "funcineq", "certifier"},
                {"numpy", "fractions"}, {"scipy"}),
    "simulate": (_CLI, _SIMULATING, {"numpy", "scipy.special"}, {"fractions"}),
    "sweep": (_CLI, _SIMULATING, {"numpy", "scipy.special"}, {"fractions"}),
    "oracle": ("from langcert import cli; assert cli.main(['oracle', '--out', sys.argv[4]]) == 0",
               {"cli", "errors", "potentials", "meanfield", "funcineq", "certifier", "oracle"},
               {"scipy.linalg"}, set()),
}


@pytest.mark.parametrize("entry", list(_IMPORT_CONTRACT))
def test_each_entry_point_loads_only_the_layers_it_runs(tmp_path, entry):
    # the README configs, run in a fresh process; the simulations are
    # shortened, since which modules load does not depend on their size
    code, layers, present, absent = _IMPORT_CONTRACT[entry]
    config = {**_readme_configs().get(entry, {}), **({"replicas": 50, "horizon": 2.0} if layers == _SIMULATING else {})}
    cfg = write_config(tmp_path, "config.json", config)
    proc = subprocess.run([sys.executable, "-c", _LOADED, code, entry, str(cfg), str(tmp_path / "out")],
                          env=_src_env(), capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {name.split(".", 1)[1] for name in loaded if name.startswith("langcert.")} == layers
    assert present <= loaded and not absent & loaded, (present - loaded, absent & loaded)


def test_public_names_are_their_modules_objects():
    import importlib
    import types

    import langcert

    for name in langcert.__all__:
        value = getattr(langcert, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"langcert.{name}")
        else:
            assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(langcert.__all__) <= set(dir(langcert))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(langcert, "no_such_name")
    # after a bare import every layer resolves, and dir() lists what __all__ does
    code = ("import langcert, sys; assert sys.modules.keys().isdisjoint({'langcert.simulator', 'numpy'}); "
            "assert langcert.simulator.run is sys.modules['langcert.simulator'].run; "
            "from langcert import certify, oracle; assert oracle is langcert.oracle; "
            "print(sorted(n for n in dir(langcert) if not n.startswith('_')) == sorted(langcert.__all__))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == "True\n"


# the certify-d1 models of perfbench/run.py (CERTIFY_MODELS): name -> (U, W, extra flags)
_BENCH_DW = {"family": "quartic_double_well", "params": {"quartic": 0.25, "well": 0.5}, "dim": 1}
_BENCH_BUMP = {"family": "gaussian_bump", "params": {"amplitude": 0.02, "width": 1.0, "sign": "attractive"}, "dim": 1}
_BENCH_QUAD = {"family": "quadratic", "params": {"coef": 1.0}, "dim": 1}
_BENCH_MODELS = {
    "readme": (_BENCH_DW, _BENCH_BUMP, []),
    "readme-split": (_BENCH_DW, _BENCH_BUMP, ["--mode", "split"]),
    "readme-paper-literal": (_BENCH_DW, _BENCH_BUMP, ["--paper-literal"]),
    "quadratic-repulsive-bump": (_BENCH_QUAD, {"family": "gaussian_bump", "params": {
        "amplitude": 0.1, "width": 1.0, "sign": "repulsive"}, "dim": 1}, []),
    "double-well": (_BENCH_DW, None, []),
    "double-well-cosine": (_BENCH_DW, {"family": "cosine", "params": {"amplitude": 0.05, "frequency": 1.0},
                                       "dim": 1}, []),
    "quadratic-quadratic-thm4": (_BENCH_QUAD, {"family": "quadratic", "params": {"coef": 0.5}, "dim": 1},
                                 ["--mode", "thm4"]),
}
_BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_certify_matches_the_benchmark_reference(tmp_path):
    # the benchmark's certificate gate, at its tolerances, on every certify-d1 model
    reference = json.loads(_BENCH_REFERENCE.read_text())
    assert sorted(_BENCH_MODELS) == sorted(reference)
    for name, (U, W, flags) in _BENCH_MODELS.items():
        cfg = write_config(tmp_path, f"{name}.json", {"model": {"N": 8, "d": 1, "U": U, "W": W}})
        out = tmp_path / name
        assert main(["certify", "--config", str(cfg), "--out", str(out), *flags]) == 0, name
        cert = json.loads((out / "certificate.json").read_text())["certificate"]
        got = {"lambda": cert["lambda"], "C0": cert["C0"], "psd_witness": cert["psd_witness"],
               "c_lip": cert["inputs"]["c_lip"], "certified": cert["certified"]}
        assert got.keys() == reference[name].keys(), name
        for key, want in reference[name].items():
            if isinstance(want, bool):
                assert got[key] is want, (name, key)
            else:
                assert abs(got[key] - want) <= 1e-9 * abs(want) + 1e-14, (name, key, got[key], want)


def check_kappa_below_the_pair_gap(tmp_path, names):
    """Certify each named certify-d1 model and compare its kappa, a Poincare
    constant for every N, with the spectral gap of the N = 2 measure.  The
    bound is the Richardson value widened by its distance to the fine gap:
    quadratic-quadratic-thm4 certifies the exact Bakry-Emery kappa = 1, and
    its fine gap reads 0.9965."""
    from langcert.funcineq import GridMeasure, spectral_gap
    from langcert.meanfield import ModelConfig
    from langcert.potentials import PotentialSpec

    bounds = {}
    for name in names:
        U, W, flags = _BENCH_MODELS[name]
        cfg = write_config(tmp_path, f"{name}.json", {"model": {"N": 8, "d": 1, "U": U, "W": W}})
        out = tmp_path / name
        assert main(["certify", "--config", str(cfg), "--out", str(out), *flags]) == 0, name
        kappa = json.loads((out / "certificate.json").read_text())["certificate"]["kappa"]
        key = json.dumps([U, W])
        if key not in bounds:
            model = ModelConfig(N=2, d=1, U=PotentialSpec(**U), W=W and PotentialSpec(**W, role="interaction"))
            # 4.5 holds the double well's mass; the quadratic U's tails need 9.0
            g = spectral_gap(GridMeasure.from_pair_model(model, 4.5 if U is _BENCH_DW else 9.0, 121))
            bounds[key] = g.richardson + abs(g.gap - g.richardson)
        assert kappa <= bounds[key], f"{name}: kappa {kappa!r} is above the pair gap bound {bounds[key]!r}"


def test_certified_kappa_sits_below_the_pair_gap(tmp_path):
    check_kappa_below_the_pair_gap(tmp_path, _BENCH_MODELS)
