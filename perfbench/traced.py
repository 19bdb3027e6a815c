"""Traced pass over one workload, run by `run.py --trace 1` in a fresh interpreter.

Each of the workload's CLI invocations runs once, in-process through
trifourier.cli.main, after every lru_cache of the package is cleared (as a
fresh interpreter would start).  Set-up invocations are not traced: the CLI
invocations build the same structures.  Spans are recorded at layer boundaries by
replacing module attributes with timing wrappers, so nothing under src/
changes.  A span holds its name, parent, start, end and tags such as dim,
n, nnz and the number of checks.  The spans, the checked op outcomes and the
per-layer metrics derived from the spans are written to --out at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
import types
from dataclasses import dataclass, field

import numpy as np

from workloads import WORKLOADS

import trifourier.cli as cli
from trifourier import dihedral, family, fourier, nonabelian, report, taumaps

MUL_SAMPLES = 20000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, tags]
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        rec = [name, self.stack[-1] if self.stack else None, time.perf_counter(), None, tags]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield tags
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr: str, name: str, tags=None, result_tags=None, under: str | None = None) -> None:
        """Record a span around every call of owner.attr (recursion stays in one span).

        With `under`, only calls made directly inside a span of that name are recorded.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            parent = self.spans[self.stack[-1]][0] if self.stack else None
            if parent == name or (under and parent != under):
                return original(*args, **kwargs)
            with self.span(name, **(tags(*args) if tags else {})) as rec_tags:
                result = original(*args, **kwargs)
            if result_tags:
                rec_tags.update(result_tags(result))
            return result

        setattr(owner, attr, traced)


def instrument(tr: Tracer) -> None:
    def by_dim(dim, *_):
        return {"dim": dim}

    def by_group(name, *_):
        return {"group": name}

    def n_checks(rep):
        return {"checks": len(rep.checks)}

    tr.wrap(family, "build_family", "family.build", by_dim, lambda fam: {"n": len(fam)})
    tr.wrap(family, "family_subspaces", "family.recursion", by_dim)
    tr.wrap(family, "Family", "family.decorate", by_dim)
    tr.wrap(family, "is_isotropic", "gf2.isotropy", under="family.verify_structure")
    tr.wrap(family, "verify_structure", "family.verify_structure", result_tags=n_checks)
    tr.wrap(family, "verify_counts", "family.verify_counts", result_tags=n_checks)
    tr.wrap(family, "family_subspaces_prime", "family.recursion_prime", by_dim)
    tr.wrap(family, "family_subspaces_ucb", "family.recursion_ucb", by_dim)
    tr.wrap(family, "family_to_json", "family.to_json")
    tr.wrap(family, "fiber_lines", "family.fiber_lines", lambda fam: {"dim": fam.dim})
    tr.wrap(taumaps, "verify_composition_identity", "taumaps.composition", by_dim, n_checks)
    for fn in ("verify_relations", "verify_family_stability", "verify_embedding_equivariance"):
        tr.wrap(dihedral, fn, "dihedral.verify", result_tags=n_checks)
    tr.wrap(fourier, "verify_involution", "fourier.involution")
    tr.wrap(fourier, "basis_matrix", "fourier.basis_matrix", result_tags=lambda b: {"n": b.shape[0], "nnz": int(b.sum())})
    tr.wrap(fourier, "integer_inverse", "fourier.solve", lambda m: {"n": m.shape[0]})
    tr.wrap(fourier, "change_of_basis", "fourier.change_of_basis",
            result_tags=lambda cob: {"n": cob.size, "nnz": int(np.count_nonzero(cob.num))})
    tr.wrap(fourier, "verify_change_of_basis", "fourier.verify_cob", result_tags=n_checks)
    tr.wrap(fourier, "verify_z_commutation", "fourier.z_commutation", by_dim, n_checks)
    tr.wrap(fourier.CobMatrix, "to_json", "fourier.to_json")
    tr.wrap(report.Report, "summary", "report.summary")
    tr.wrap(nonabelian, "mdata", "nonabelian.mdata", by_group)
    tr.wrap(nonabelian, "nonabelian_ft", "nonabelian.ft", by_group, lambda ft: {"n": ft.size})
    tr.wrap(nonabelian.FTMatrix, "is_involution", "nonabelian.involution")
    tr.wrap(nonabelian.FTMatrix, "is_symmetric", "nonabelian.involution")
    tr.wrap(nonabelian.FTMatrix, "trace", "nonabelian.trace")
    tr.wrap(nonabelian.FTMatrix, "to_json", "nonabelian.to_json")
    tr.wrap(nonabelian, "hyperplane_check", "nonabelian.hyperplane", result_tags=n_checks)
    tr.wrap(nonabelian, "verify_triangular", "nonabelian.triangular", result_tags=n_checks)
    # the CLI's json.dumps, so that serialisation is its own span
    cli.json = types.SimpleNamespace(dumps=json.dumps, JSONDecodeError=json.JSONDecodeError)
    tr.wrap(cli.json, "dumps", "json.dumps")


@dataclass(frozen=True)
class Layer:
    """A per-layer metric: the summed duration of matching spans inside CLI ops."""

    names: tuple[str, ...]
    tags: dict = field(default_factory=dict)  # required span tags, e.g. {"dim": 12}
    command: str | None = None  # first word of the op's command line
    self_time: bool = False  # minus the time covered by direct child spans


LAYERS: dict[str, Layer] = {
    # gf2-fourier
    "family.build_s": Layer(("family.build",), {"dim": 8}),
    "fourier.basis_matrix_s": Layer(("fourier.basis_matrix",)),
    "fourier.solve_s": Layer(("fourier.solve",)),
    "fourier.change_of_basis_s": Layer(("fourier.change_of_basis",), self_time=True),
    "fourier.verify_cob_s": Layer(("fourier.verify_cob",)),
    "fourier.involution_s": Layer(("fourier.involution",)),
    "fourier.z_commutation_s": Layer(("fourier.z_commutation",)),
    "fourier.to_json_s": Layer(("fourier.to_json", "json.dumps"), command="matrix"),
    # gf2-family
    "family.recursion_s": Layer(("family.recursion",), {"dim": 10}),
    "family.decorate_s": Layer(("family.decorate",), {"dim": 10}),
    "family.provenance_s": Layer(("family.build",), {"dim": 10}, self_time=True),
    "family.recursion_prime_s": Layer(("family.recursion_prime",)),
    "family.recursion_ucb_s": Layer(("family.recursion_ucb",)),
    "family.verify_structure_s": Layer(("family.verify_structure",)),
    "gf2.isotropy_s": Layer(("gf2.isotropy",)),
    "taumaps.composition_s": Layer(("taumaps.composition",)),
    "dihedral.verify_s": Layer(("dihedral.verify",)),
    "report.summary_s": Layer(("report.summary",), command="verify"),
    "family.to_json_s": Layer(("family.to_json", "json.dumps"), command="family"),
    "family.fiber_lines_s": Layer(("family.fiber_lines",), {"dim": 10}),
    # nonabelian-s5
    "nonabelian.mdata_s": Layer(("nonabelian.mdata",), {"group": "s5"}),
    "nonabelian.ft_s": Layer(("nonabelian.ft",), {"group": "s5"}, self_time=True),
    "nonabelian.involution_s": Layer(("nonabelian.involution",)),
    "nonabelian.hyperplane_s": Layer(("nonabelian.hyperplane",)),
    "nonabelian.triangular_s": Layer(("nonabelian.triangular",)),
    "nonabelian.to_json_s": Layer(("nonabelian.to_json", "json.dumps"), command="nonabelian"),
}


def layer_metrics(spans: list[list], op_commands: dict[int, str]) -> dict[str, tuple[float, str]]:
    """Per-layer seconds from the spans, plus trace.unattributed_s and cyclotomic.mul_us."""
    op_of: list[int | None] = []
    child_time = [0.0] * len(spans)
    for i, (name, parent, start, end, _) in enumerate(spans):
        op_of.append(i if i in op_commands else (op_of[parent] if parent is not None else None))
        if parent is not None:
            child_time[parent] += end - start
    metrics = {}
    for metric, layer in LAYERS.items():
        total = 0.0
        for i, (name, parent, start, end, tags) in enumerate(spans):
            if (
                name in layer.names
                and op_of[i] is not None
                and all(tags.get(k) == v for k, v in layer.tags.items())
                and (layer.command is None or op_commands[op_of[i]] == layer.command)
            ):
                total += end - start - (child_time[i] if layer.self_time else 0.0)
        metrics[metric] = (total, "s")
    metrics["trace.unattributed_s"] = (sum(spans[i][3] - spans[i][2] - child_time[i] for i in op_commands), "s")
    muls = [s for s in spans if s[0] == "cyclotomic.mul"]
    metrics["cyclotomic.mul_us"] = (
        sum(s[3] - s[2] for s in muls) / MUL_SAMPLES * 1e6 if muls else 0.0,
        "us",
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="traced pass of one benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    # collected before instrumenting: the wrappers hide the cached originals
    caches = {id(obj): obj for mod_name, mod in list(sys.modules.items())
              if mod_name.startswith("trifourier") for obj in vars(mod).values() if hasattr(obj, "cache_clear")}
    tr = Tracer()
    instrument(tr)

    ops, op_commands = [], {}
    for op in {op.label: op for op in wl.ops if op.kind != "setup"}.values():
        for cached in caches.values():
            cached.cache_clear()
        buf = io.StringIO()
        cli_args = list(op.argv[2:])  # after "-m trifourier"
        op_commands[len(tr.spans)] = cli_args[0]
        try:
            with tr.span("op", command=op.label, kind=op.kind), contextlib.redirect_stdout(buf):
                rc = cli.main(cli_args)
            op.check(rc, buf.getvalue(), rng)
            problem = None
        except Exception as exc:  # a crash or a wrong output; recorded, and the pass goes on
            problem = f"{type(exc).__name__}: {exc}"
        start, end = tr.spans[max(op_commands)][2:4]
        ops.append({"label": op.label, "kind": op.kind, "seconds": end - start, "problem": problem})

    if args.workload == "nonabelian-s5":
        ft = nonabelian.nonabelian_ft("s5")
        entries = [v for row in ft.matrix for v in row]
        pairs = [(rng.choice(entries), rng.choice(entries)) for _ in range(MUL_SAMPLES)]
        with tr.span("cyclotomic.mul", count=MUL_SAMPLES):
            for a, b in pairs:
                a * b

    doc = {
        "ops": ops,
        "metrics": layer_metrics(tr.spans, op_commands),
        "spans": [{"name": n, "parent": p, "start": s, "end": e, **t} for n, p, s, e, t in tr.spans],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
