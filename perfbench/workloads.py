"""The benchmark's workloads: fixed CLI invocations, each with its output check.

The inputs do not depend on the seed; the seed drives only the sampled parts
of the checks (and the sampled entries of the traced cyclotomic probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

IDENTITY_BASIS = ".perfbench_out/s5-identity-basis.json"


@dataclass(frozen=True)
class Op:
    kind: str  # "verify" (time to a verdict), "export" (time to an artefact) or "setup"
    argv: tuple[str, ...]  # interpreter arguments
    check: Callable

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    why: str
    # One round, in order.  An invocation may appear several times; its samples
    # are pooled by label and the run reports their median.  Set-up and short
    # invocations are spread over the round so that their medians sample all of it;
    # run.py times the reference computation between every two invocations.
    ops: tuple[Op, ...]


def _cli(kind: str, cmd: str, check: Callable) -> Op:
    return Op(kind, ("-m", "trifourier", *cmd.split()), check)


def _setup(code: str) -> Op:
    """A fresh interpreter through `import trifourier` to the workload's shared structure."""
    return Op("setup", ("-c", "import trifourier; " + code), checks.check_exit_zero)


FAMILY_8 = _setup("from trifourier.family import build_family; build_family(8)")
FAMILY_10 = _setup("from trifourier.family import build_family; build_family(10)")
FT_S5 = _setup("from trifourier.nonabelian import nonabelian_ft; nonabelian_ft('s5')")
VERIFY_8 = _cli("verify", "verify --dim 8 --suite all", checks.check_report_pass)
MATRIX_8 = _cli("export", "matrix --dim 8 --format json", partial(checks.check_matrix_json, dim=8))
VERIFY_10 = tuple(
    _cli("verify", f"verify --dim 10 --suite {suite}", checks.check_report_pass)
    for suite in ("family", "dihedral", "counts")
)
S5_MATRIX = _cli("export", "nonabelian --group s5 --check matrix", checks.check_s5_matrix)

WORKLOADS: dict[str, Workload] = {
    "gf2-fourier": Workload(
        why="Fourier path at D=8: verify --suite all and the exact change-of-basis export, 256 members",
        ops=(
            FAMILY_8, VERIFY_8, MATRIX_8, VERIFY_8, MATRIX_8,
            FAMILY_8, VERIFY_8, MATRIX_8, VERIFY_8, MATRIX_8,
        ),
    ),
    "gf2-family": Workload(
        why="family recursion, decoration, checks and exports at D=10 (1,024 members); bypasses fourier",
        ops=(
            FAMILY_10,
            *VERIFY_10,
            _cli("export", "family --dim 10 --format json", partial(checks.check_family_json, dim=10)),
            _cli("export", "family --dim 10", partial(checks.check_family_text, dim=10)),
        ),
    ),
    "nonabelian-s5": Workload(
        why="cyclotomic group matrices: s5 checks and export, s4 involution, s3 new bases; no GF(2) code",
        ops=(
            FT_S5,
            _cli("verify", "nonabelian --group s5 --check involution", checks.check_involution_verdict),
            S5_MATRIX,
            _cli("verify", "nonabelian --group s5 --check hyperplane", checks.check_report_pass),
            _cli("verify", "nonabelian --group s5 --check trace", checks.check_s5_trace),
            S5_MATRIX,
            _cli(
                "verify",
                f"nonabelian --group s5 --check newbasis --basis {IDENTITY_BASIS}",
                checks.check_s5_identity_newbasis,
            ),
            _cli("verify", "nonabelian --group s4 --check involution", checks.check_involution_verdict),
            S5_MATRIX,
            _cli("verify", "nonabelian --group s3 --check newbasis", checks.check_s3_newbasis),
            _cli("verify", "nonabelian --group s3 --variant e --check newbasis", checks.check_s3_newbasis),
        ),
    ),
}
