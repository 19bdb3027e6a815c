"""The checks that stand in for the dense residual and closed form above D = 12.

At D = 14 the residual W - B X and the closed form G B = W would each pack
2^14 rows of 2^14 fields.  The change of basis is built by the recursion,
so its correctness follows from the level below and from the lemmas the
recursion rests on; each is a named check here.  Imported only on that path.
"""

from __future__ import annotations

from .family import FamilyStructureError, build_family
from .fourier import CobMatrix, change_of_basis, dense_checks, push_up
from .taumaps import check_complement, preserves_form, tau


def lemma_checks(cob: CobMatrix) -> list[tuple[str, bool, str]]:
    """The checks the recursion rests on, for D >= 2, as (check, ok, details); none packs 2^D x 2^D.

    The (D-2)-matrix passes the dense checks; every tau_i preserves the form
    and its image is a complement of F2 e_i in the perp of e_i; every row
    but the zero member's is what the pushes of the (D-2)-rows give, and
    they agree; the zero row expands 1_V.  With G Z_i = 2 Z_i G' (the
    z-commutation suite) they give B X = W.
    """
    fam = cob.family
    dim = fam.dim
    below = change_of_basis(build_family(dim - 2))
    checks = [(f"lemma:{check} D={dim - 2}", ok, details) for check, ok, details in dense_checks(below)]

    space = fam.space
    maps = range(1, dim + 2)
    bad_maps = [f"tau_{i}" for i in maps if not preserves_form(space, tau(space, i))]
    checks.append(("lemma:preserves-form", not bad_maps, ", ".join(bad_maps)))
    bad_maps = [f"tau_{i}" for i in maps if not check_complement(space, i)]
    checks.append(("lemma:complement", not bad_maps, ", ".join(bad_maps)))

    # push_up raises when two pushes disagree; the rows they give must be the matrix's
    below_keys = [e.key for e in below.family.entries]
    rows_below = {below_keys[r]: {below_keys[c]: v for c, v in row.items()} for r, row in enumerate(below.num)}
    try:
        pushed = push_up(dim, rows_below)
    except FamilyStructureError as exc:
        checks.append(("lemma:push-agreement", False, str(exc)))
    else:
        keys = [e.key for e in fam.entries]
        bad = ""
        for key, row in pushed.items():
            r = fam.index_of_key.get(key)
            if r is None or row != {keys[c]: v for c, v in cob.num[r].items()}:
                bad = f"member {space.interval_span(key).rows} differs from its pushes"
                break
        unpushed = cob.size - 1 - len(pushed)
        checks.append(("lemma:push-agreement", not bad and not unpushed, bad or f"{unpushed} rows not pushed"))

    got = [0] * (1 << dim)
    for c, v in cob.num[fam.index_of_key[0]].items():
        for u in cob.members[c]:
            got[u] += v
    checks.append(("lemma:zero-row-residual", got == [1] * len(got), "B x - 1_V is not zero"))
    return checks
