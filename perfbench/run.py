"""Benchmark of coxmulti: construction on B3, F4 set-up and construction,
and certificate checking.

    python3 perfbench/run.py --workload b3-cases --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run is one fresh process that drives coxmulti's public functions cell
by cell, with no process pool.  It repeats whole rounds of its operations
and stops at the round boundary nearest to --seconds of set-up and
operation time (at least one round), then checks every output with perfbench/check.py, outside
the timed part.  Latency and throughput come from each operation's median
time over the rounds.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 wraps the public functions of every module
(perfbench/tracing.py), runs one untraced and one traced round and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import gzip
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
INPUTS = os.path.join(HERE, "inputs", "certificates.json.gz")
sys.path.insert(0, HERE)

WORKLOADS = ("b3-cases", "f4-orbit1", "verify-certs")
# set-ups per run, each in a fresh interpreter, half of them before the
# rounds and half after; setup_s is their median (one F4 set-up takes 30 s
# or more, so f4-orbit1 takes only its own)
SETUP_SAMPLES = {"b3-cases": 7, "f4-orbit1": 1, "verify-certs": 7}
CHECK_POINTS = 2  # random points per certificate for the exact checks

B3_CELLS = [(p, q, case) for p in range(-1, 3) for q in range(-1, 3) for case in range(1, 5)]
G2_CELLS = [(m1, m2) for m1 in range(-2, 5) for m2 in range(-2, 5)]
F4_CELLS = [(0, 0, 2), (0, 0, 4), (1, 0, 2), (1, 0, 4)]


class Lib:
    """The coxmulti modules of this checkout, imported in a fresh process."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import coxmulti
        import coxmulti.certificates
        import coxmulti.cli
        import coxmulti.coxeter
        import coxmulti.engine
        origin = os.path.dirname(os.path.abspath(coxmulti.__file__))
        if origin != os.path.join(SRC, "coxmulti"):
            raise RuntimeError(f"coxmulti imported from {origin}, not from {SRC}")
        self.engine = coxmulti.engine
        self.coxeter = coxmulti.coxeter
        self.certificates = coxmulti.certificates
        self.cli = coxmulti.cli


def setup(workload: str, tracer=None):
    """Fresh process to ready: import, arrangements and contexts."""
    start = time.perf_counter()
    lib = Lib()
    if tracer is not None:
        tracer.install()
        traced_from = time.perf_counter()
    mc = lib.engine.make_context
    if workload == "b3-cases":
        state = {"B3": mc("B", rank=3)}
    elif workload == "f4-orbit1":
        state = {"F4": mc("F4")}
    else:
        ca = lib.coxeter.cached_arrangement
        state = {"B3": ca("B", rank=3), "G2": ca("G2")}
    end = time.perf_counter()
    traced = end - traced_from if tracer is not None else 0.0
    return lib, state, end - start, traced


def setup_samples(workload: str, count: int) -> list:
    """Set-up times of `count` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-only", workload],
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Workloads: a round is a list of operations; each returns (ok, output)
# ---------------------------------------------------------------------------

def fresh_contexts(lib: Lib, workload: str, state: dict) -> dict:
    """Contexts for a later round, with no work cached from earlier rounds."""
    E, build = lib.engine.EpqContext, lib.coxeter.build_arrangement
    if workload == "b3-cases":
        return {"B3": E(build("B", rank=3))}
    if workload == "f4-orbit1":
        # the arrangement keeps its invariant systems (30 s or more to build)
        return {"F4": E(state["F4"].arr)}
    return state


def construction_ops(lib: Lib, workload: str, ctxs: dict):
    engine, certificates = lib.engine, lib.certificates
    key, cells = ("B3", B3_CELLS) if workload == "b3-cases" else ("F4", F4_CELLS)
    ops = []
    for p, q, case in cells:
        def op(ctx=ctxs[key], p=p, q=q, case=case):
            return _guarded(lambda: certificates.certificate_to_json(
                engine.theta_basis(ctx, p, q, case)))
        ops.append(((key, p, q, case), op))
    return ops


def _guarded(build):
    """(True, certificate JSON), or (False, traceback) when construction raises."""
    try:
        return True, build()
    except Exception:  # a failed construction is a failed operation
        return False, traceback.format_exc(limit=2)


def _tamper(obj: dict, field: str) -> dict:
    """A copy of a certificate with one claimed field changed."""
    o = copy.deepcopy(obj)
    if field == "multiplicity":
        o["multiplicity"]["m1"] += 2
    elif field == "case":
        o["case"] = "4" if o["case"] == "1" else "1"
    elif field == "exponents":
        o["exponents"][0] += 1
    elif field == "saito_c":
        c = o["saito_c"]
        num = c["ext"][0] if isinstance(c, dict) else c
        num[0] = str(2 * int(num[0]))
    elif field == "saito_c_type":
        o["saito_c"] = 5
    elif field == "invariance":
        o["invariance"][0][0] = "antifixed" if o["invariance"][0][0] == "fixed" else "fixed"
    elif field == "basis":
        # an extra constant term makes the first element inhomogeneous
        num = o["basis"][0]["coeffs"][0]["num"]
        num["terms"].append([[0] * int(num["nvars"]), ["1", "1"]])
    return o


TAMPER_FIELDS = ("multiplicity", "case", "exponents", "saito_c", "saito_c_type",
                 "invariance", "basis")
TAMPER_SOURCES = ("B3_p1_q1_c1", "G2_m1_m1")


def verify_inputs() -> list:
    """Write the certificate files and their tampered copies; return
    (name, path, genuine) for each."""
    with gzip.open(INPUTS, "rt") as fh:
        bundle = json.load(fh)
    folder = os.path.join(OUT, "certs")
    os.makedirs(folder, exist_ok=True)
    files = []
    for name in sorted(bundle):
        path = os.path.join(folder, name + ".json")
        with open(path, "w") as fh:
            fh.write(bundle[name])
        files.append((name, path, True))
    for src in TAMPER_SOURCES:
        obj = json.loads(bundle[src])
        for field in TAMPER_FIELDS:
            name = f"{src}_tampered_{field}"
            path = os.path.join(folder, name + ".json")
            with open(path, "w") as fh:
                json.dump(_tamper(obj, field), fh, sort_keys=True, indent=1)
            files.append((name, path, False))
    return files, bundle


def verify_ops(lib: Lib, files: list, rng: random.Random):
    order = list(files)
    rng.shuffle(order)
    ops = []
    for name, path, genuine in order:
        def op(path=path, genuine=genuine):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = lib.cli.main(["verify", path])
            except Exception:  # an escaped exception is a traceback and exit 1
                return False, {"rc": 1, "traceback": traceback.format_exc(limit=1)}
            if genuine:
                return rc == 0, {"rc": rc, "report": out.getvalue()}
            return rc in (2, 4), {"rc": rc}
        ops.append(((name, genuine), op))
    return ops


def run_round(ops):
    times, results = [], []
    for key, op in ops:
        t0 = time.perf_counter()
        ok, output = op()
        times.append(time.perf_counter() - t0)
        results.append((key, ok, output))
    return times, results


# ---------------------------------------------------------------------------
# Independent checks (outside the timed part)
# ---------------------------------------------------------------------------

def check_construction(workload, rounds, rng, state):
    import check

    first = rounds[0]
    for other in rounds[1:]:
        if [r[2] for r in other] != [r[2] for r in first]:
            raise check.CheckError("a later round produced different certificates")
    for key, ok, text in first:
        if ok:
            check.check_certificate(text, rng, {"pq_case": key[1:]}, CHECK_POINTS)
    if workload == "f4-orbit1":
        arr = check.arrangement_for({"family": "F4"})
        invs = [p.terms for p in state["F4"].sys_w.invariants]
        check.check_invariants(invs, arr, CHECK_POINTS, rng)


def check_verify(rounds, bundle, rng):
    import check

    for results in rounds:
        for (name, genuine), ok, output in results:
            if genuine:
                if not ok:
                    raise check.CheckError(f"genuine certificate {name} rejected")
                report = json.loads(output["report"])
                claimed = json.loads(bundle[name])["saito_c"]
                if report["failures"] or report["saito_c"] != claimed:
                    raise check.CheckError(f"verify report for {name} is wrong")
    for name in sorted(bundle):
        if name.startswith("B3_"):
            p, q, c = (int(x[1:]) for x in name.split("_")[1:])
            expect = {"pq_case": (p, q, c)}
        else:
            expect = {"m": tuple(int(x[1:]) for x in name.split("_")[1:])}
        check.check_certificate(bundle[name], rng, expect, CHECK_POINTS)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def make_ops(lib, workload, ctxs, files, rng):
    if workload == "verify-certs":
        return verify_ops(lib, files, rng)
    return construction_ops(lib, workload, ctxs)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    lib, state, setup_s, traced_setup = setup(workload, tracer)
    if tracer is not None:
        tracer.uninstall()
    extra = SETUP_SAMPLES[workload] - 1
    setups = [setup_s] + (setup_samples(workload, extra // 2) if not trace else [])
    rng = random.Random(seed)
    files = bundle = None
    if workload == "verify-certs":
        files, bundle = verify_inputs()

    # Whole rounds, stopping at the round boundary nearest to `seconds` of
    # set-up and operation time; every round after the first runs on fresh
    # contexts.  Counting the set-up keeps f4-orbit1 (30 s or more of it) to
    # one round.
    rounds, op_times, op_elapsed = [], {}, 0.0
    ctxs = state
    while True:
        gc.collect()
        ops = make_ops(lib, workload, ctxs, files, rng)
        t0 = time.perf_counter()
        times, results = run_round(ops)
        wall = time.perf_counter() - t0
        rounds.append(results)
        for (key, _, _), t in zip(results, times):
            op_times.setdefault(key, []).append(t)
        op_elapsed += sum(times)
        if trace or setup_s + op_elapsed * (1 + 0.5 / len(rounds)) >= seconds:
            break
        del ops, ctxs
        ctxs = fresh_contexts(lib, workload, state)

    if trace:
        gc.collect()
        ops = make_ops(lib, workload, fresh_contexts(lib, workload, state), files, rng)
        tracer.install()
        t0 = time.perf_counter()
        _, traced_results = run_round(ops)
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()
        tracer.wall = traced_setup + traced_wall
        rounds.append(traced_results)
        counted = traced_results
    else:
        counted = [r for rnd in rounds for r in rnd]

    import check

    check_rng = random.Random(seed * 7919 + 1)
    correct = True
    try:
        if workload == "verify-certs":
            check_verify(rounds, bundle, check_rng)
        else:
            check_construction(workload, rounds, check_rng, state)
    except check.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    attempted = len(counted)
    failed = sum(1 for _, ok, _ in counted if not ok)
    if trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
        metrics = tracer.metrics(traced_wall / wall)
    else:
        # each operation's median over the rounds, so that a slow spell in
        # one round moves no operation's figure
        per_op = [statistics.median(ts) for ts in op_times.values()]
        setups += setup_samples(workload, extra - extra // 2)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "op_p80_s": {"value": statistics.quantiles(per_op, n=5, method="inclusive")[3],
                         "unit": "s"},
            "ops_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(f"rounds {len(rounds)}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[workload]
        print(f"{workload}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(setup(args.setup_only)[2])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
