"""Stage times of the F4 (p,q) = (1,1) case-1 basis, the long pole.

    python3 perfbench/f4_long_pole.py

Takes several minutes, so no workload holds it; the README records its
figures.  Prints the time of each stage (context, then E^(1,1), then the
frame plus certification), the exponents and the Saito scalar, and checks
the certificate with perfbench/check.py.
"""

from __future__ import annotations

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    import check
    from coxmulti import e_pq, make_context, theta_basis
    from coxmulti.certificates import certificate_to_json

    t0 = time.perf_counter()
    ctx = make_context("F4")
    t1 = time.perf_counter()
    e_pq(ctx, 1, 1)
    t2 = time.perf_counter()
    cert = theta_basis(ctx, 1, 1, 1)
    text = certificate_to_json(cert)
    t3 = time.perf_counter()
    print(f"context {t1 - t0:.1f} s")
    print(f"E^(1,1) {t2 - t1:.1f} s")
    print(f"frame plus certify {t3 - t2:.1f} s")
    print(f"exponents {cert.exponents}, c = {cert.saito_c}")
    check.check_certificate(text, random.Random(1), {"pq_case": (1, 1, 1)})
    print("independent checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
