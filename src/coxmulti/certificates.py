"""JSON interchange for polynomials, derivations and basis certificates.

Rational coefficients serialize as [numerator, denominator] strings;
coefficients over Q(g) serialize as {"ext": [[num, den], ...]} listing the
representative's coefficients in ascending powers of the generator.
Serialization is deterministic (sorted keys, canonical monomial order) so
identical runs produce byte-identical files.
"""

import json
from fractions import Fraction
from typing import Dict, Optional

from .coxeter import ArrangementData, Multiplicity, cached_arrangement
from .derivations import Derivation
from .engine import BasisCertificate
from .poly import LinearForm, LogRational, Poly
from .scalars import AlgebraicNumber, NumberField

SCHEMA_VERSION = 1

# the size parameter a certificate names for each family, with its largest
# value: building B_r grows about as r^4 (about 0.6 s at r = 12, 33 s at
# r = 32) and I2(n) about as n^2.8 (about 1 s at n = 24), so a larger claim
# is refused before anything is built
MAX_SIZE = {"B": ("rank", 12), "I2": ("n", 24)}


def encode_scalar(c):
    if isinstance(c, AlgebraicNumber):
        return {"ext": [[str(f.numerator), str(f.denominator)] for f in c.coeffs]}
    f = Fraction(c)
    return [str(f.numerator), str(f.denominator)]


def decode_scalar(obj, field: Optional[NumberField]):
    if isinstance(obj, dict):
        if field is None:
            raise ValueError("extension coefficient without a number field")
        ext = obj.get("ext")
        if not isinstance(ext, list):
            raise ValueError(f"malformed extension scalar {obj!r}")
        return field.element([_decode_fraction(c) for c in ext])
    return _decode_fraction(obj)


def _integer(obj, what: str) -> int:
    """A JSON integer; booleans, floats and strings are malformed."""
    if type(obj) is not int:
        raise ValueError(f"malformed {what} {obj!r:.40}: expected an integer")
    return obj


def _string(obj, what: str) -> str:
    if type(obj) is not str:
        raise ValueError(f"malformed {what} {obj!r:.40}: expected a string")
    return obj


def _list(obj, what: str, length: Optional[int] = None) -> list:
    if type(obj) is not list:
        raise ValueError(f"malformed {what}: expected a list")
    if length is not None and len(obj) != length:
        raise ValueError(f"malformed {what}: expected {length} entries, got {len(obj)}")
    return obj


def _object(obj, what: str) -> dict:
    if type(obj) is not dict:
        raise ValueError(f"malformed {what}: expected an object")
    return obj


def _decode_fraction(obj) -> Fraction:
    """[numerator, denominator] as integers or integer strings."""
    if type(obj) is not list or len(obj) != 2:
        raise ValueError(f"malformed scalar {obj!r}")
    n, d = obj
    if type(n) not in (int, str) or type(d) not in (int, str):
        raise ValueError(f"malformed scalar {obj!r}")
    n, d = int(n), int(d)
    if not d:
        raise ValueError(f"zero denominator in scalar {obj!r}")
    return Fraction(n, d)


def encode_poly(p: Poly) -> Dict:
    return {
        "nvars": p.nvars,
        "terms": [[list(e), encode_scalar(c)] for e, c in p.sorted_terms()],
    }


def decode_poly(obj: Dict, field: Optional[NumberField]) -> Poly:
    obj = _object(obj, "polynomial")
    nvars = _integer(obj["nvars"], "nvars")
    terms = {}
    for term in _list(obj["terms"], "terms"):
        e, c = _list(term, "term", 2)
        exps = tuple(_integer(k, "exponent") for k in _list(e, "exponent"))
        if len(exps) != nvars or min(exps, default=0) < 0:
            raise ValueError(f"malformed exponent {e!r} for {nvars} variables")
        if exps in terms:
            raise ValueError(f"malformed polynomial: exponent {e!r} repeated")
        c = decode_scalar(c, field)
        if not c:  # a Poly holds nonzero coefficients only
            raise ValueError(f"malformed term {term!r:.60}: zero coefficient")
        terms[exps] = c
    return Poly(nvars, terms)


def encode_logrational(x: LogRational) -> Dict:
    x = x.reduced()
    den = sorted(x.den.items(), key=lambda t: t[0])
    return {
        "num": encode_poly(x.num),
        "den": [[[encode_scalar(c) for c in form.coeffs], e] for form, e in den],
    }


def decode_logrational(obj: Dict, field: Optional[NumberField]) -> LogRational:
    obj = _object(obj, "coefficient")
    num = decode_poly(obj["num"], field)
    den = {}
    for factor in _list(obj["den"], "denominator"):
        coeffs, e = _list(factor, "denominator factor", 2)
        coeffs = _list(coeffs, "denominator form", num.nvars)
        raw = [decode_scalar(c, field) for c in coeffs]
        form = LinearForm(raw)
        # normalizing would rescale the fraction by a power of a scalar
        if any(a != b for a, b in zip(form.coeffs, raw)):
            raise ValueError(f"malformed denominator form {coeffs!r:.60}: not normalized")
        den[form] = _integer(e, "denominator exponent")
    return LogRational(num, den).reduced()


def encode_derivation(theta: Derivation) -> Dict:
    return {
        "coeffs": [encode_logrational(c) for c in theta.coeffs],
        "degree": theta.degree(),
    }


def decode_derivation(obj: Dict, field: Optional[NumberField]) -> Derivation:
    obj = _object(obj, "derivation")
    coeffs = [decode_logrational(c, field) for c in _list(obj["coeffs"], "coeffs")]
    if any(c.nvars != len(coeffs) for c in coeffs):
        raise ValueError(f"malformed derivation: {len(coeffs)} coefficients "
                         f"in {sorted({c.nvars for c in coeffs})} variables")
    return Derivation(coeffs)


def encode_multiplicity(mult: Multiplicity) -> Dict:
    if mult.is_equivariant():
        m1, m2 = mult.orbit_pair()
        return {"m1": m1, "m2": m2}
    return {
        "values": [[[encode_scalar(c) for c in h.form.coeffs], v]
                   for h, v in sorted(mult.values.items(), key=lambda t: t[0].form)],
    }


def decode_multiplicity(obj: Dict, arr: ArrangementData) -> Multiplicity:
    obj = _object(obj, "multiplicity")
    if "m1" in obj:
        return Multiplicity.from_pair(arr, _integer(obj["m1"], "m1"), _integer(obj["m2"], "m2"))
    values = {}
    for entry in _list(obj["values"], "multiplicity values"):
        coeffs, v = _list(entry, "multiplicity value", 2)
        coeffs = _list(coeffs, "hyperplane form", arr.rank)
        form = LinearForm([decode_scalar(c, arr.field) for c in coeffs])
        values[arr.hyperplane_of(form)] = _integer(v, "multiplicity value")
    return Multiplicity(arr, values)


def encode_certificate(cert: BasisCertificate) -> Dict:
    out = {
        "schema": SCHEMA_VERSION,
        "family": cert.family,
        "params": cert.params,
        "multiplicity": encode_multiplicity(cert.multiplicity),
        "case": cert.case,
        "route": cert.route,
        "exponents": cert.exponents,
        "saito_c": encode_scalar(cert.saito_c),
        "invariance": cert.invariance,
        "basis": [encode_derivation(t) for t in cert.basis],
    }
    if cert.seeds:
        out["seeds"] = [list(s) for s in cert.seeds]
    return out


def certificate_to_json(cert: BasisCertificate) -> str:
    return json.dumps(encode_certificate(cert), sort_keys=True, indent=1)


def arrangement_from_header(obj: Dict) -> ArrangementData:
    family = _string(obj["family"], "family").upper()
    params = _object(obj.get("params") or {}, "params")
    size = {}
    if family in MAX_SIZE:
        key, limit = MAX_SIZE[family]
        value = _integer(params.get(key), f"params.{key}")
        if value > limit:
            raise ValueError(f"params.{key} = {value} exceeds the supported maximum {limit}")
        size[key] = value
    return cached_arrangement(family, **size)


def decode_certificate(obj: Dict) -> BasisCertificate:
    obj = _object(obj, "certificate")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    arr = arrangement_from_header(obj)
    mult = decode_multiplicity(obj["multiplicity"], arr)
    basis = [decode_derivation(d, arr.field)
             for d in _list(obj["basis"], "basis", arr.rank)]
    if any(theta.nvars != arr.rank for theta in basis):
        raise ValueError(f"malformed basis: derivations of rank {arr.rank} expected")
    saito_c = decode_scalar(obj["saito_c"], arr.field)
    return BasisCertificate(
        family=arr.family, params=dict(arr.params), multiplicity=mult,
        case=_string(obj["case"], "case"), basis=basis,
        exponents=[_integer(e, "exponent") for e in _list(obj["exponents"], "exponents")],
        saito_c=saito_c,
        invariance=obj.get("invariance", []), route=obj.get("route", "file"),
        seeds=[tuple(s) for s in obj["seeds"]] if obj.get("seeds") else None,
    )


def certificate_from_json(text: str) -> BasisCertificate:
    return decode_certificate(json.loads(text))
