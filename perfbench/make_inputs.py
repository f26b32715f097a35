"""Make the certificate inputs of the verify-certs workload anew.

    python3 perfbench/make_inputs.py

Builds every B3 cell of b3-cases and the G2 cells over (m1,m2) in {-2..4}^2
with `coxmulti basis --out`, one command per cell, and bundles the files into
perfbench/inputs/certificates.json.gz (name -> file text).  Run it whenever
the certificate format changes on purpose; the tampered copies are made
from this bundle by run.py.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import B3_CELLS, G2_CELLS, INPUTS, OUT  # noqa: E402


def main() -> int:
    from coxmulti import cli

    commands = {}
    for p, q, case in B3_CELLS:
        commands[f"B3_p{p}_q{q}_c{case}"] = ["basis", "--family", "B", "--rank", "3",
                                              "--p", str(p), "--q", str(q),
                                              "--case", str(case)]
    for m1, m2 in G2_CELLS:
        commands[f"G2_m{m1}_m{m2}"] = ["basis", "--family", "G2",
                                        "--m1", str(m1), "--m2", str(m2)]
    bundle = {}
    tmp = os.path.join(OUT, "make_inputs")
    os.makedirs(tmp, exist_ok=True)
    for name, argv in commands.items():
        path = os.path.join(tmp, name + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", path])
        if rc != 0:
            print(f"{name}: coxmulti {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
        with open(path) as fh:
            bundle[name] = fh.read()
    shutil.rmtree(tmp)
    data = json.dumps(bundle, sort_keys=True).encode()
    os.makedirs(os.path.dirname(INPUTS), exist_ok=True)
    with open(INPUTS, "wb") as fh:
        fh.write(gzip.compress(data, mtime=0))
    print(f"{len(bundle)} certificates, {len(data)} bytes, written to {INPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
