import gzip
import json
from pathlib import Path

import pytest

from coxmulti.certificates import (certificate_from_json, certificate_to_json,
                                   decode_logrational, encode_logrational)
from coxmulti.coxeter import cached_arrangement
from coxmulti.engine import EpqContext, equivariant_basis, make_context, theta_basis
from coxmulti.poly import LinearForm, LogRational, Poly
from coxmulti.verify import saito_check


def test_logrational_roundtrip():
    fx = LinearForm([1, 0])
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    val = LogRational(3 * x * y + y * y, {fx: 2})
    blob = encode_logrational(val)
    back = decode_logrational(blob, None)
    assert back == val


def test_certificate_roundtrip_b2():
    ctx = make_context("B", rank=2)
    cert = theta_basis(ctx, 1, 1, 1)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.exponents == cert.exponents
    assert back.multiplicity == cert.multiplicity
    assert all(a == b for a, b in zip(back.basis, cert.basis))
    assert saito_check(ctx.arr, back.multiplicity, back.basis) == cert.saito_c


def test_certificate_roundtrip_field_coefficients():
    g2 = make_context("G2")
    cert = equivariant_basis(g2, 1, 1)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.exponents == cert.exponents
    assert all(a == b for a, b in zip(back.basis, cert.basis))


def test_serialization_deterministic():
    ctx = make_context("B", rank=2)
    cert = theta_basis(ctx, 1, 0, 2)
    assert certificate_to_json(cert) == certificate_to_json(cert)
    blob = json.loads(certificate_to_json(cert))
    assert blob["schema"] == 1
    assert blob["multiplicity"] == {"m1": 1, "m2": 0}


def test_golden_poly_encoding():
    x = Poly.variable(2, 0)
    enc = encode_logrational(LogRational.from_poly(2 * x))
    assert enc == {"num": {"nvars": 2, "terms": [[[1, 0], ["2", "1"]]]}, "den": []}


BUNDLE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "certificates.json.gz"


@pytest.mark.parametrize("name", [
    "G2_m1_m3",  # odd equivariant: the oracle route restricted to the W-fixed part
    "G2_m-2_m-1",  # poles on both orbits: the oracle over a nontrivial denominator
    "B3_p-1_q1_c4",  # E^(-1,1) inverts nabla_D over Q1^2: divisibility rows
    "G2_m0_m0",  # the one G2 file whose saito_c is a plain rational, not {"ext": ...}
])
def test_rebuilt_certificate_matches_bundle(name):
    """A fresh context rebuilds the bundled benchmark certificate byte for byte."""
    bundle = json.loads(gzip.decompress(BUNDLE.read_bytes()))
    family, *params = name.split("_")
    args = [int(p[1:]) for p in params]
    if family == "G2":
        cert = equivariant_basis(EpqContext(cached_arrangement("G2")), *args)
    else:
        cert = theta_basis(EpqContext(cached_arrangement("B", rank=3)), *args)
    assert certificate_to_json(cert) + "\n" == bundle[name]
