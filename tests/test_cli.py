import contextlib
import copy
import gzip
import importlib.util
import io
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxmulti.certificates import decode_poly, decode_scalar, encode_poly
from coxmulti.cli import main
from coxmulti.coxeter import cached_arrangement
from coxmulti.poly import LinearForm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_b3(capsys):
    code, out, _ = run(capsys, "info", "--family", "B", "--rank", "3")
    assert code == 0
    assert "hyperplanes 9 = 3 + 6" in out
    assert "degrees W  [2, 4, 6] (h = 6)" in out
    assert "(h1 = 2)" in out and "(h2 = 4)" in out


def test_info_g2_json(capsys):
    code, out, _ = run(capsys, "info", "--family", "G2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["hyperplanes"] == 6 and blob["orbit_sizes"] == [3, 3]
    assert blob["h1"] == blob["h2"] == 3


def test_info_bad_family(capsys):
    code, _, err = run(capsys, "info", "--family", "H3")
    assert code == 2


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_basis_b2_case1(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "basis", "--family", "B", "--rank", "2",
                       "--p", "1", "--q", "1", "--case", "1", "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["exponents"] == [1, 3]
    assert blob["multiplicity"] == {"m1": 1, "m2": 1}


def test_basis_g2_multiplicity_route(tmp_path, capsys):
    out_file = tmp_path / "cert_g2.json"
    code, out, _ = run(capsys, "basis", "--family", "G2",
                       "--m1", "3", "--m2", "1", "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["case"] == "rank2"
    assert sum(blob["exponents"]) == 3 * 3 + 3 * 1


def test_basis_usage_error(capsys):
    code, _, err = run(capsys, "basis", "--family", "B", "--rank", "2")
    assert code == 2


def test_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run(capsys, "basis", "--family", "B", "--rank", "2",
        "--m1", "2", "--m2", "0", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_detects_perturbation(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run(capsys, "basis", "--family", "B", "--rank", "2",
        "--p", "1", "--q", "1", "--case", "1", "--out", str(out_file))
    blob = json.loads(out_file.read_text())
    blob["basis"][0]["coeffs"][0]["num"]["terms"][0][1] = ["917", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 4
    assert json.loads(out)["failures"]


def test_verify_accepts_permuted_basis(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run(capsys, "basis", "--family", "B", "--rank", "2",
        "--p", "1", "--q", "1", "--case", "1", "--out", str(out_file))
    blob = json.loads(out_file.read_text())
    blob["basis"] = blob["basis"][::-1]
    blob["exponents"] = blob["exponents"][::-1]
    perm = tmp_path / "perm.json"
    perm.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify", str(perm))
    assert code == 0


@pytest.fixture(scope="module")
def b2_case1_cert(tmp_path_factory):
    out_file = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["basis", "--family", "B", "--rank", "2", "--p", "1", "--q", "1",
                 "--case", "1", "--out", str(out_file)]) == 0
    return json.loads(out_file.read_text())


def _verify_blob(tmp_path, capsys, blob):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(blob))
    return run(capsys, "verify", str(path))


@pytest.mark.parametrize("field", ["saito_c", "case", "invariance"])
def test_verify_rejects_false_claim(tmp_path, capsys, b2_case1_cert, field):
    blob = copy.deepcopy(b2_case1_cert)
    if field == "saito_c":
        blob["saito_c"][0] = str(2 * int(blob["saito_c"][0]))
    elif field == "case":
        blob["case"] = "4"
    else:
        blob["invariance"][0][0] = "antifixed"
    code, out, _ = _verify_blob(tmp_path, capsys, blob)
    assert code == 4
    assert any(field in failure for failure in json.loads(out)["failures"])


def _b2_values(value):
    # the (1, 1) multiplicity written hyperplane by hyperplane, one entry replaced
    forms = [[1, 0], [0, 1], [1, -1], [1, 1]]
    return {"values": [[[[str(c), "1"] for c in f], value if k == 0 else 1]
                       for k, f in enumerate(forms)]}


def _coeff(blob):
    return blob["basis"][0]["coeffs"][0]


# each mutation breaks the certificate's schema or its shape
MALFORMED = {
    "saito_c": lambda b: b.update(saito_c=5),
    # one variable too many in a rank-2 numerator
    "exponent": lambda b: _coeff(b)["num"]["terms"][0].__setitem__(0, [1, 1, 1]),
    "exponent_float": lambda b: _coeff(b)["num"]["terms"][0].__setitem__(0, [1.0, 0]),
    "m1_float": lambda b: b["multiplicity"].update(m1=1.5),
    "m1_bool": lambda b: b["multiplicity"].update(m1=True),
    "m2_string": lambda b: b["multiplicity"].update(m2="1"),
    "values_float": lambda b: b.update(multiplicity=_b2_values(1.5)),
    "den_exponent_float": lambda b: _coeff(b).update(den=[[[["1", "1"], ["0", "1"]], 1.0]]),
    "nvars_string": lambda b: _coeff(b)["num"].update(nvars="2"),
    "nvars_3": lambda b: _coeff(b)["num"].update(nvars=3),
    "third_coefficient": lambda b: b["basis"][0]["coeffs"].append(copy.deepcopy(_coeff(b))),
    "third_element": lambda b: b["basis"].append(copy.deepcopy(b["basis"][0])),
    "params_rank_3": lambda b: b.update(params={"rank": 3}),
    "params_without_rank": lambda b: b.update(params={}),
    "family_int": lambda b: b.update(family=7),
    "case_int": lambda b: b.update(case=1),
    # -x1 where the format writes x1: read as x1 it would rescale the entry
    "den_form_not_normalized": lambda b: _coeff(b).update(den=[[[["-1", "1"], ["0", "1"]], 1]]),
    "zero_coefficient": lambda b: _coeff(b)["num"]["terms"][0].__setitem__(1, ["0", "1"]),
    "repeated_exponent": lambda b: _coeff(b)["num"]["terms"].append(
        copy.deepcopy(_coeff(b)["num"]["terms"][0])),
}


@pytest.mark.parametrize("field", list(MALFORMED))
def test_verify_malformed_field_is_parse_error(tmp_path, capsys, b2_case1_cert, field):
    blob = copy.deepcopy(b2_case1_cert)
    MALFORMED[field](blob)
    code, _, err = _verify_blob(tmp_path, capsys, blob)
    assert code == 2
    assert "malformed" in err
    assert "Traceback" not in err


# each mutation puts a basis element outside D(A, m) without breaking the schema
NOT_IN_MODULE = {
    "zero_derivation": lambda b: b["basis"][0].update(
        coeffs=[{"num": {"nvars": 2, "terms": []}, "den": []}] * 2),
    "foreign_denominator": lambda b: _coeff(b).update(den=[[[["1", "1"], ["2", "1"]], 1]]),
}


@pytest.mark.parametrize("field", list(NOT_IN_MODULE))
def test_verify_reports_basis_outside_module(tmp_path, capsys, b2_case1_cert, field):
    blob = copy.deepcopy(b2_case1_cert)
    NOT_IN_MODULE[field](blob)
    code, out, err = _verify_blob(tmp_path, capsys, blob)
    assert code == 4
    assert "Traceback" not in err
    assert any("basis element 0 is not in D(A, m)" in f for f in json.loads(out)["failures"])


def test_verify_claimed_large_rank_expands_no_products(tmp_path, capsys, b2_case1_cert):
    # Q2 of B8 has 8! terms: reading the header must not expand it
    blob = copy.deepcopy(b2_case1_cert)
    blob["params"] = {"rank": 8}
    code, _, err = _verify_blob(tmp_path, capsys, blob)
    assert code == 2 and "malformed" in err
    assert "Q2" not in vars(cached_arrangement("B", rank=8))


def _refused_before_building(tmp_path, capsys, monkeypatch, blob, message):
    monkeypatch.setattr("coxmulti.coxeter.build_arrangement",
                        lambda *args, **kwargs: pytest.fail("arrangement built"))
    start = time.perf_counter()
    code, _, err = _verify_blob(tmp_path, capsys, blob)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and message in err
    assert "Traceback" not in err


def test_verify_claimed_large_dihedral_is_refused_before_building(tmp_path, capsys, monkeypatch,
                                                                  b2_case1_cert):
    # building I2(500) would take hours; the header alone must be refused
    blob = copy.deepcopy(b2_case1_cert)
    blob.update(family="I2", params={"n": 500})
    _refused_before_building(tmp_path, capsys, monkeypatch, blob, "params.n = 500")


def test_verify_claimed_large_rank_is_refused_before_building(tmp_path, capsys, monkeypatch,
                                                              b2_case1_cert):
    # building B_r grows about as r^4 (B32 takes half a minute)
    blob = copy.deepcopy(b2_case1_cert)
    blob["params"] = {"rank": 500}
    _refused_before_building(tmp_path, capsys, monkeypatch, blob, "params.rank = 500")


def test_verify_accepts_values_multiplicity(tmp_path, capsys, b2_case1_cert):
    blob = copy.deepcopy(b2_case1_cert)
    blob["multiplicity"] = _b2_values(1)
    code, out, err = _verify_blob(tmp_path, capsys, blob)
    assert code == 0, err


def test_verify_rejects_inhomogeneous_basis(tmp_path, capsys, b2_case1_cert):
    blob = copy.deepcopy(b2_case1_cert)
    num = blob["basis"][0]["coeffs"][0]["num"]
    num["terms"].append([[0] * num["nvars"], ["1", "1"]])
    code, out, err = _verify_blob(tmp_path, capsys, blob)
    assert code == 4
    assert "Traceback" not in err
    assert "basis element 0 is not homogeneous" in json.loads(out)["failures"]


def test_verify_reads_unreduced_file(tmp_path, capsys):
    # one coefficient over one more power of one of its own forms is the
    # same value, and verify gives the same report
    with gzip.open(PERFBENCH / "inputs" / "certificates.json.gz") as fh:
        blob = json.loads(json.load(fh)["B3_p-1_q0_c2"])
    original = json.loads(_verify_blob(tmp_path, capsys, blob)[1])
    coeff = next(c for theta in blob["basis"] for c in theta["coeffs"] if c["den"])
    form = LinearForm([decode_scalar(a, None) for a in coeff["den"][0][0]])
    coeff["num"] = encode_poly(decode_poly(coeff["num"], None) * form.to_poly())
    coeff["den"][0][1] += 1
    code, out, _ = _verify_blob(tmp_path, capsys, blob)
    assert code == 0
    assert json.loads(out)["saito_c"] == original["saito_c"] == blob["saito_c"]


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(bad))
    assert code == 2


def test_sweep_deterministic(capsys):
    # wall-clock runtime_ms is the only column allowed to vary between runs
    args = ["sweep", "--family", "B", "--rank", "2", "--m-min", "-1", "--m-max", "1"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]
    assert strip(out1) == strip(out2)
    lines = out1.strip().splitlines()
    assert lines[0] == "family,params,m1,m2,case,exponents,saito_c,runtime_ms"
    assert len(lines) == 1 + 9


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "G2",
                       "--m-min", "0", "--m-max", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["cells"]) == 4
    assert all(cell["ok"] for cell in blob["cells"])


def test_sweep_worker_pool(capsys, monkeypatch):
    monkeypatch.setenv("COXMULTI_WORKERS", "2")
    code, out, _ = run(capsys, "sweep", "--family", "B", "--rank", "2",
                       "--m-min", "0", "--m-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[1].startswith("B,rank=2,0,0,4,0|0")


def test_info_i2_n10(capsys):
    code, out, _ = run(capsys, "info", "--family", "I2", "--n", "10")
    assert code == 0
    assert "hyperplanes 20 = 10 + 10" in out
    assert "(h1 = 10)" in out


# one small bundled certificate per family, and one with denominators
FUZZ_CERTIFICATES = ("B3_p1_q0_c2", "B3_p-1_q0_c2", "G2_m1_m0")
FUZZ_FIELDS = ("basis", "multiplicity", "saito_c", "exponents")
REPLACEMENTS = st.one_of(st.integers(-3, 5), st.integers(-3, 5).map(str),
                         st.sampled_from([1.5, True, None, "x", []]))


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, path + (i,))
    else:
        yield path


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The fuzzed certificates, read from the benchmark's bundle (never
    written), and the benchmark's independent checker."""
    with gzip.open(PERFBENCH / "inputs" / "certificates.json.gz") as fh:
        bundle = json.load(fh)
    spec = importlib.util.spec_from_file_location("perfbench_check", PERFBENCH / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    blobs = {name: json.loads(bundle[name]) for name in FUZZ_CERTIFICATES}
    return blobs, check, tmp_path_factory.mktemp("fuzz") / "mutant.json"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FUZZ_CERTIFICATES), st.data())
def test_verify_mutation_fuzz(fuzz_inputs, name, data):
    # verify never raises; it accepts a mutant only if the benchmark's
    # checker, which shares no code with coxmulti, accepts it too
    blobs, check, path = fuzz_inputs
    blob = copy.deepcopy(blobs[name])
    leaves = [p for p in _leaves(blob) if p[0] in FUZZ_FIELDS]
    leaf = data.draw(st.sampled_from(leaves))
    owner = blob
    for key in leaf[:-1]:
        owner = owner[key]
    old = json.dumps(owner[leaf[-1]])
    owner[leaf[-1]] = data.draw(REPLACEMENTS.filter(lambda v: json.dumps(v) != old))
    text = json.dumps(blob)
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 2, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        check.check_certificate(text, random.Random(0))
