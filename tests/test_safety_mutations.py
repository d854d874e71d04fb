"""The mutation battery: each row pushes one certified input in its unsafe
direction and asserts that a check which does not share the code's numbers
fails.  No row reads a pinned value, so a row holds across re-pins, and a
row that no independent check catches yet is a strict xfail until one does.
"""

import dataclasses

import pytest

from langcert import certifier, funcineq, potentials
from langcert.potentials import extract_constants
from test_cli import _BENCH_MODELS, check_kappa_below_the_pair_gap
from test_potentials import LYAPUNOV_SPECS, check_clip_closed_form, check_lyapunov_condition


def test_k2_below_the_lyapunov_offset_fails_the_sampled_condition(monkeypatch):
    # K2 x 0.99: the 1e-9 outward margin added after the scan is far below
    # the cut, so this also drops it
    offsets = potentials.lyapunov_offsets
    monkeypatch.setattr(potentials, "lyapunov_offsets", lambda U, k1s: [0.99 * k2 for k2 in offsets(U, k1s)])
    for spec in LYAPUNOV_SPECS:
        with pytest.raises(AssertionError, match="Lyapunov condition fails"):
            check_lyapunov_condition(spec, extract_constants(spec, None))


def test_c_lip_below_the_quadrature_fails_the_closed_form(monkeypatch):
    clip = potentials.lipschitz_constant
    monkeypatch.setattr(potentials, "lipschitz_constant",
                        lambda b0: dataclasses.replace(clip(b0), value=0.99 * clip(b0).value))
    with pytest.raises(AssertionError, match="is not the closed form"):
        check_clip_closed_form(1.0)


def test_kappa_above_the_criterion_fails_the_pair_gap(monkeypatch, tmp_path):
    # the README model takes kappa from the convexity criterion: 5 x 0.1845
    # is above its N = 2 gap of about 0.79
    criterion = funcineq.upi_criterion
    monkeypatch.setattr(funcineq, "upi_criterion", lambda *args: 5 * criterion(*args))
    with pytest.raises(AssertionError, match="readme: kappa .* is above the pair gap"):
        check_kappa_below_the_pair_gap(tmp_path, ["readme"])


@pytest.mark.xfail(strict=True, reason="no independent check until item 17")
def test_zero_psd_margin_fails_a_check(monkeypatch, tmp_path):
    # every check above that reads a certificate, on every certify-d1 model
    monkeypatch.setattr(certifier, "PSD_MARGIN", 0)
    with pytest.raises(AssertionError):
        check_kappa_below_the_pair_gap(tmp_path, _BENCH_MODELS)
