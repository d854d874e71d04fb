import json
from pathlib import Path

from langcert.cli import main

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


def test_certify_split_mode_reports_both(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": {"N": 4, "d": 1, "U": DW_U, "W": SMALL_BUMP}})
    out = tmp_path / "o"
    rc = main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "1", "--mode", "split"])
    assert rc == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["certificate"]["variant"].startswith("split")
    assert "certificate_single" in report
    assert report["certificate_single"]["lambda"] > 0


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
