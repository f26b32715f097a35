"""Timing wrappers around coxmulti's public functions, installed from outside.

Tracer.install() replaces each target function, in its defining module and
in every coxmulti module that imported it by name, with a wrapper that keeps
a call stack.  Every wrapper adds its self time (its duration minus the time
of wrapped calls beneath it) and a call count under its layer name.  Coarse
functions also record a span (id, name, start, end, parent) in memory; hot
arithmetic (Poly, AlgebraicNumber) is timed and counted but records no span,
so a traced run stays within memory.  uninstall() restores the originals.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, layer name, records spans)
TARGETS = [
    ("poly", "Poly.__mul__", "poly.mul", False),
    ("poly", "Poly.divide_exact", "poly.divide_exact", False),
    ("poly", "Poly.substitute_matrix", "poly.substitute_matrix", False),
    ("scalars", "AlgebraicNumber.__add__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__sub__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__rsub__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__neg__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__mul__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__truediv__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__rtruediv__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.__pow__", "scalars.algebraic", False),
    ("scalars", "AlgebraicNumber.inverse", "scalars.inverse", False),
    ("linalg", "rref", "linalg.rref", False),
    ("linalg", "determinant", "linalg.determinant", True),
    ("linalg", "_laplace_determinant", "linalg.laplace", True),
    ("linalg", "bareiss_determinant", "linalg.bareiss", True),
    ("linalg", "solve_over_fractions", "linalg.solve_fractions", True),
    ("linalg", "solve_affine", "linalg.solve_affine", True),
    ("coxeter", "reynolds", "coxeter.reynolds", True),
    ("coxeter", "ArrangementData.group_elements", "coxeter.group_elements", True),
    ("coxeter", "basic_invariants", "coxeter.invariant_system", True),
    ("coxeter", "build_arrangement", "coxeter.build_arrangement", True),
    ("derivations", "Derivation.apply", "derivations.apply", False),
    ("derivations", "membership_witness", "derivations.membership", True),
    ("derivations", "group_action", "derivations.group_action", True),
    ("derivations", "coordinate_field", "derivations.coordinate_field", True),
    ("engine", "make_context", "engine.make_context", True),
    ("engine", "invert_covariant", "engine.invert_covariant", True),
    ("engine", "nabla_frame", "engine.nabla_frame", True),
    ("engine", "e_pq", "engine.e_pq", True),
    ("engine", "theta_basis", "engine.theta_basis", True),
    ("verify", "saito_check", "verify.saito", True),
    ("verify", "invariance_check", "verify.invariance", True),
    ("certificates", "certificate_to_json", "certificates.encode", True),
    ("certificates", "certificate_from_json", "certificates.decode", True),
    ("cli", "cmd_verify", "cli.verify", True),
]

# counted only: every LogRational built, reduced or not
COUNTED = [("poly", "LogRational.__init__", "poly.logrational_new")]

SCALAR_OPS = ("scalars.algebraic", "scalars.inverse")

# per-layer metrics in the order they are printed: name -> unit
PER_LAYER = {
    "poly.divide_exact_s": "s", "poly.divide_exact_calls": "count",
    "poly.divide_exact_hit_ratio": "ratio", "poly.logrational_new": "count",
    "poly.mul_s": "s", "poly.mul_calls": "count",
    "poly.substitute_matrix_s": "s", "poly.substitute_matrix_calls": "count",
    "scalars.algebraic_s": "s", "scalars.algebraic_ops": "count",
    "scalars.inverse_calls": "count",
    "linalg.rref_s": "s", "linalg.rref_calls": "count", "linalg.rref_entries": "count",
    "linalg.determinant_s": "s", "linalg.laplace_s": "s",
    "linalg.solve_fractions_s": "s", "linalg.dets_per_solve": "ratio",
    "coxeter.reynolds_s": "s", "coxeter.reynolds_substitutions": "count",
    "coxeter.group_elements_s": "s", "coxeter.invariant_system_s": "s",
    "derivations.apply_s": "s", "derivations.apply_calls": "count",
    "derivations.membership_s": "s", "derivations.group_action_s": "s",
    "derivations.coordinate_field_s": "s",
    "engine.make_context_s": "s", "engine.invert_covariant_s": "s",
    "engine.invert_covariant_calls": "count", "engine.invert_attempts": "count",
    "engine.invert_system_cells": "count", "engine.nabla_frame_s": "s",
    "verify.saito_s": "s", "verify.invariance_s": "s",
    "certificates.encode_s": "s", "certificates.decode_s": "s",
    "certificates.bytes": "bytes",
    "cli.verify_s": "s",
    "trace.coverage": "ratio", "trace.overhead_ratio": "ratio",
}


def _resolve(obj, path):
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.extra = Counter()  # counts measured at a boundary
        self.spans = []  # (id, name, start, end, parent)
        self._stack = []  # frames: [name, child_time, span_id]
        self._saved = []  # (owner, attribute, original)
        self.wall = 0.0

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, fn, name, spans):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        extra = self.extra
        record = self.spans
        clock = time.perf_counter
        on_return = _ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            if spans:
                frame[2] = len(record)
                record.append(None)
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                if spans:
                    pid = None
                    for f in reversed(stack):
                        if f[2] is not None:
                            pid = f[2]
                            break
                    record[frame[2]] = (frame[2], name, start, end, pid)
            if on_return is not None:
                on_return(extra, args, out, parent[0] if parent else None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "coxmulti"):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {k: v for k, v in sys.modules.items()
                if k == package or k.startswith(package + ".")}
        plan = [(m, p, n, s, False) for m, p, n, s in TARGETS]
        plan += [(m, p, n, False, True) for m, p, n in COUNTED]
        for modname, path, name, spans, counted in plan:
            owner, attr = _resolve(mods[f"{package}.{modname}"], path)
            orig = owner.__dict__[attr]
            new = self._count(orig, name) if counted else self._wrap(orig, name, spans)
            # the defining owner, aliases on it (__rmul__ = __mul__) and every
            # module that imported the function by name
            holders = [owner] + ([] if isinstance(owner, type) else list(mods.values()))
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._saved.append((holder, key, orig))
                        setattr(holder, key, new)

    def uninstall(self):
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved = []

    # -- results --------------------------------------------------------------
    def coverage(self) -> float:
        """Share of traced wall time inside root spans."""
        inside = sum(s[3] - s[2] for s in self.spans if s is not None and s[4] is None)
        return inside / self.wall if self.wall else 0.0

    def metrics(self, overhead_ratio: float) -> dict:
        s, c, x = self.self_s, self.calls, self.extra
        solves = c["linalg.solve_fractions"]
        divides = c["poly.divide_exact"]
        vals = {
            "poly.divide_exact_s": s["poly.divide_exact"],
            "poly.divide_exact_calls": divides,
            "poly.divide_exact_hit_ratio": x["divide_hits"] / divides if divides else 0.0,
            "poly.logrational_new": c["poly.logrational_new"],
            "poly.mul_s": s["poly.mul"], "poly.mul_calls": c["poly.mul"],
            "poly.substitute_matrix_s": s["poly.substitute_matrix"],
            "poly.substitute_matrix_calls": c["poly.substitute_matrix"],
            "scalars.algebraic_s": sum(s[k] for k in SCALAR_OPS),
            "scalars.algebraic_ops": sum(c[k] for k in SCALAR_OPS),
            "scalars.inverse_calls": c["scalars.inverse"],
            "linalg.rref_s": s["linalg.rref"], "linalg.rref_calls": c["linalg.rref"],
            "linalg.rref_entries": x["rref_entries"],
            "linalg.determinant_s": s["linalg.determinant"] + s["linalg.bareiss"],
            "linalg.laplace_s": s["linalg.laplace"],
            "linalg.solve_fractions_s": s["linalg.solve_fractions"],
            "linalg.dets_per_solve": x["dets_in_solve"] / solves if solves else 0.0,
            "coxeter.reynolds_s": s["coxeter.reynolds"],
            "coxeter.reynolds_substitutions": x["reynolds_substitutions"],
            "coxeter.group_elements_s": s["coxeter.group_elements"],
            "coxeter.invariant_system_s": s["coxeter.invariant_system"],
            "derivations.apply_s": s["derivations.apply"],
            "derivations.apply_calls": c["derivations.apply"],
            "derivations.membership_s": s["derivations.membership"],
            "derivations.group_action_s": s["derivations.group_action"],
            "derivations.coordinate_field_s": s["derivations.coordinate_field"],
            "engine.make_context_s": s["engine.make_context"],
            "engine.invert_covariant_s": s["engine.invert_covariant"],
            "engine.invert_covariant_calls": c["engine.invert_covariant"],
            "engine.invert_attempts": x["invert_attempts"],
            "engine.invert_system_cells": x["invert_system_cells"],
            "engine.nabla_frame_s": s["engine.nabla_frame"],
            "verify.saito_s": s["verify.saito"],
            "verify.invariance_s": s["verify.invariance"],
            "certificates.encode_s": s["certificates.encode"],
            "certificates.decode_s": s["certificates.decode"],
            "certificates.bytes": x["certificate_bytes"],
            "cli.verify_s": s["cli.verify"],
            "trace.coverage": self.coverage(),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: {"value": vals[k], "unit": u} for k, u in PER_LAYER.items()}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2],
                                         "end": s[3], "parent": s[4]}) + "\n")


# -- counts taken where the work happens ---------------------------------------

def _divide(extra, args, out, parent):
    if out is not None:
        extra["divide_hits"] += 1


def _rref(extra, args, out, parent):
    rows = args[0]
    extra["rref_entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _determinant(extra, args, out, parent):
    if parent == "linalg.solve_fractions":
        extra["dets_in_solve"] += 1


def _substitute(extra, args, out, parent):
    if parent == "coxeter.reynolds":
        extra["reynolds_substitutions"] += 1


def _solve_affine(extra, args, out, parent):
    if parent == "engine.invert_covariant":
        rows = args[0]
        extra["invert_attempts"] += 1
        extra["invert_system_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _encoded(extra, args, out, parent):
    extra["certificate_bytes"] += len(out)


def _decoded(extra, args, out, parent):
    extra["certificate_bytes"] += len(args[0])


_ON_RETURN = {
    "poly.divide_exact": _divide,
    "linalg.rref": _rref,
    "linalg.determinant": _determinant,
    "poly.substitute_matrix": _substitute,
    "linalg.solve_affine": _solve_affine,
    "certificates.encode": _encoded,
    "certificates.decode": _decoded,
}
