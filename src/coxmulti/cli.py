"""Batch command line: construct, verify and sweep basis certificates.

Exit codes partition the outcomes: 0 success, 2 usage or parse errors,
3 construction (solver) failures, 4 verification failures.  Identical
invocations produce byte-identical output; sweep cells may run in a
process pool (COXMULTI_WORKERS) and are merged in sorted order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import prod
from typing import Dict, List, Optional

from .certificates import certificate_from_json, certificate_to_json, encode_scalar
from .coxeter import basic_invariants, cached_arrangement
from .engine import (FOUR_CASE_FAMILIES, BasisCertificate, EngineError, SolverError,
                     case_multiplicity_pair, equivariant_basis, make_context,
                     pq_for_multiplicity, theta_basis)
from .verify import VerificationError, invariance_check, saito_check

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFICATION = 4


def _family_args(parser: argparse.ArgumentParser):
    parser.add_argument("--family", required=True, help="B, F4, G2 or I2")
    parser.add_argument("--rank", type=int, help="rank for the B family")
    parser.add_argument("--n", type=int, help="half the line count for I2 (>= 4)")


def _load_arrangement(args):
    return cached_arrangement(args.family, rank=args.rank, n=args.n)


def cmd_info(args) -> int:
    arr = _load_arrangement(args)
    sys_w = basic_invariants(arr, "W")
    sys_w1 = basic_invariants(arr, "W1")
    sys_w2 = basic_invariants(arr, "W2")
    info = {
        "family": arr.family,
        "params": arr.params,
        "hyperplanes": len(arr.hyperplanes),
        "orbit_sizes": [len(arr.orbit(1)), len(arr.orbit(2))],
        "degrees": sys_w.degrees,
        "degrees_w1": sys_w1.degrees,
        "degrees_w2": sys_w2.degrees,
        "h": sys_w.coxeter_number,
        "h1": sys_w1.coxeter_number,
        "h2": sys_w2.coxeter_number,
        # |W| is the product of the degrees of its basic invariants
        "group_order": prod(sys_w.degrees),
    }
    if args.format == "json":
        print(json.dumps(info, sort_keys=True, indent=1))
    else:
        print(f"family {info['family']} params {info['params']}")
        print(f"hyperplanes {info['hyperplanes']} = "
              f"{info['orbit_sizes'][0]} + {info['orbit_sizes'][1]} (orbits)")
        print(f"degrees W  {info['degrees']} (h = {info['h']})")
        print(f"degrees W1 {info['degrees_w1']} (h1 = {info['h1']})")
        print(f"degrees W2 {info['degrees_w2']} (h2 = {info['h2']})")
        print(f"|W| = {info['group_order']}")
    return EXIT_OK


def _build_certificate(args) -> BasisCertificate:
    ctx = make_context(args.family, rank=args.rank, n=args.n)
    if args.m1 is not None or args.m2 is not None:
        if args.m1 is None or args.m2 is None:
            raise ValueError("both --m1 and --m2 are required")
        return equivariant_basis(ctx, args.m1, args.m2)
    if args.p is None or args.q is None:
        raise ValueError("provide either --p/--q or --m1/--m2")
    if not ctx.first_case:
        m1, m2 = case_multiplicity_pair(args.p, args.q, args.case)
        return equivariant_basis(ctx, m1, m2)
    return theta_basis(ctx, args.p, args.q, args.case)


def cmd_basis(args) -> int:
    try:
        cert = _build_certificate(args)
    except (SolverError,) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (EngineError, VerificationError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    text = certificate_to_json(cert)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(cert.summary())
    else:
        print(text)
    return EXIT_OK


def _recomputed_case(arr, mult) -> Optional[str]:
    """The case label the engine gives a basis for mult; None if it has none."""
    if arr.family not in FOUR_CASE_FAMILIES:
        return "rank2"
    if not mult.is_equivariant():
        return None
    return str(pq_for_multiplicity(*mult.orbit_pair())[2])


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as fh:
            cert = certificate_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    arr = cached_arrangement(cert.family, rank=cert.params.get("rank"),
                             n=cert.params.get("n"))
    degrees = [t.degree() for t in cert.basis]
    homogeneous = None not in degrees
    failures: List[str] = [f"basis element {k} is not homogeneous"
                           for k, d in enumerate(degrees) if d is None]
    # the claimed c is that of the basis in ascending degree (ties in file
    # order), so a reordered basis is checked against the same c
    basis = cert.basis
    if homogeneous:
        basis = [t for _, t in sorted(zip(degrees, basis), key=lambda pair: pair[0])]
    try:
        c = saito_check(arr, cert.multiplicity, basis)
    except VerificationError as exc:
        failures.append(f"saito: {exc}")
        c = None
    if c is not None and c != cert.saito_c:
        failures.append(f"claimed saito_c {encode_scalar(cert.saito_c)} "
                        f"is not the recomputed {encode_scalar(c)}")
    if homogeneous and sorted(degrees) != sorted(cert.exponents):
        failures.append(f"degrees {sorted(degrees)} do not match exponents {cert.exponents}")
    case = _recomputed_case(arr, cert.multiplicity)
    if cert.case != case:
        failures.append(f"claimed case {cert.case!r} is not the recomputed {case!r}")
    flags = invariance_check(cert.basis, arr.gens_W)
    if cert.invariance != flags:
        failures.append(f"claimed invariance {cert.invariance} is not the recomputed {flags}")
    if case == "1" and any(f != "fixed" for fl in flags for f in fl):
        failures.append("odd-odd certificate is not generator-fixed")
    report = {
        "file": args.certificate,
        "saito_c": encode_scalar(c) if c is not None else None,
        "exponents": sorted(cert.exponents),
        "failures": failures,
    }
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_VERIFICATION if failures else EXIT_OK


def _sweep_cell(family: str, rank: Optional[int], n: Optional[int],
                m1: int, m2: int) -> Dict:
    ctx = make_context(family, rank=rank, n=n)
    start = time.monotonic()
    try:
        cert = equivariant_basis(ctx, m1, m2)
        ms = int((time.monotonic() - start) * 1000)
        return {"m1": m1, "m2": m2, "ok": True, "case": cert.case,
                "exponents": cert.exponents,
                "saito_c": encode_scalar(cert.saito_c), "runtime_ms": ms}
    except (SolverError, EngineError, VerificationError) as exc:
        ms = int((time.monotonic() - start) * 1000)
        return {"m1": m1, "m2": m2, "ok": False, "error": str(exc), "runtime_ms": ms}


def cmd_sweep(args) -> int:
    lo, hi = args.m_min, args.m_max
    if hi < lo:
        print("empty sweep window", file=sys.stderr)
        return EXIT_USAGE
    cells = [(m1, m2) for m1 in range(lo, hi + 1) for m2 in range(lo, hi + 1)]
    workers = int(os.environ.get("COXMULTI_WORKERS", "1"))
    results = []
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_sweep_cell, args.family, args.rank, args.n, m1, m2)
                    for m1, m2 in cells]
            results = [f.result() for f in futs]
    else:
        for m1, m2 in cells:
            results.append(_sweep_cell(args.family, args.rank, args.n, m1, m2))
    results.sort(key=lambda r: (r["m1"], r["m2"]))
    any_failed = any(not r["ok"] for r in results)
    if args.format == "json":
        out = json.dumps({"family": args.family, "cells": results}, sort_keys=True, indent=1)
    else:
        lines = ["family,params,m1,m2,case,exponents,saito_c,runtime_ms"]
        params = f"rank={args.rank}" if args.rank else (f"n={args.n}" if args.n else "")
        for r in results:
            if r["ok"]:
                exps = "|".join(str(e) for e in r["exponents"])
                c = r["saito_c"]
                c_text = f"{c[0]}/{c[1]}" if isinstance(c, list) else "ext"
                lines.append(f"{args.family},{params},{r['m1']},{r['m2']},{r['case']},"
                             f"{exps},{c_text},{r['runtime_ms']}")
            else:
                lines.append(f"{args.family},{params},{r['m1']},{r['m2']},FAIL,,,"
                             f"{r['runtime_ms']}")
        out = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_CONSTRUCTION if any_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmulti",
        description="exact free bases for equivariant multiarrangement derivation modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="arrangement summary")
    _family_args(p_info)
    p_info.add_argument("--format", choices=["text", "json"], default="text")
    p_info.set_defaults(fn=cmd_info)

    p_basis = sub.add_parser("basis", help="construct and self-verify a basis")
    _family_args(p_basis)
    p_basis.add_argument("--p", type=int)
    p_basis.add_argument("--q", type=int)
    p_basis.add_argument("--case", type=int, choices=[1, 2, 3, 4], default=1)
    p_basis.add_argument("--m1", type=int)
    p_basis.add_argument("--m2", type=int)
    p_basis.add_argument("--out", help="certificate output path (default stdout)")
    p_basis.set_defaults(fn=cmd_basis)

    p_verify = sub.add_parser("verify", help="re-check a certificate file from scratch")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="construct bases over a multiplicity window")
    _family_args(p_sweep)
    p_sweep.add_argument("--m-min", type=int, default=-2)
    p_sweep.add_argument("--m-max", type=int, default=4)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
