"""The checks that stand in for the dense products above D = 12, each one line that names
the first failing level or map: the recursion proves the change of basis by induction from
D = 0, where B = X = W = [1], and G G = 2^D I and G Z_i = 2 Z_i G' follow from the Gram
table and the maps."""

from __future__ import annotations

from typing import Iterable

from . import taumaps
from .fourier import CobMatrix, expansion_rows
from .gf2 import SymplecticSpace, make_space, span_vectors


def involution_from_gram(space: SymplecticSpace) -> tuple[bool, str]:
    """G G = 2^D I, as (ok, details): `space.forms`, the table `sign_transform` reads through
    `gram_inverse`, is the span table of the Gram rows, alternating and a bijection.

    Then (G G)[x, z] = sum_y (-1)^(y . (forms[x] + forms[z])) = 2^D [x = z].
    """
    forms = space.forms
    if forms != span_vectors(space.gram):
        return False, "forms is not the span table of the Gram rows"
    bad = next((x for x, f in enumerate(forms) if (x & f).bit_count() & 1), None)
    if bad is not None:
        return False, f"the pairing is not alternating: (x, x) = 1 at x = {bad}"
    if len(set(forms)) != len(forms):
        return False, "forms is not a bijection"
    return True, ""


def _map_checks(levels: Iterable[int]) -> list[tuple[str, bool, str]]:
    """Every tau_i of every level preserves the form, and its image is a complement of F2 e_i
    in the perp of e_i; each check names the first map that fails it, as "tau_i D=k"."""
    maps = [(make_space(k), i) for k in levels for i in range(1, k + 2)]
    broken = next((f"tau_{i} D={sp.dim}" for sp, i in maps if not taumaps.preserves_form(sp, taumaps.tau(sp, i))), "")
    not_complement = next((f"tau_{i} D={sp.dim}" for sp, i in maps if not taumaps.check_complement(sp, i)), "")
    return [("lemma:preserves-form", not broken, broken), ("lemma:complement", not not_complement, not_complement)]


def z_commutation_from_maps(dim: int) -> tuple[bool, str]:
    """G Z_i = 2 Z_i G' for D >= 2, as (ok, details naming what it rests on or what fails).

    On a point mass at y both sides are 2 (-1)^((x, tau_i y)) on the perp of
    e_i and 0 off it when the forms of D and D-2 are bilinear and alternating,
    im tau_i + F2 e_i is that perp (so (e_i, tau_i y) = 0) and tau_i
    preserves the form.
    """
    for k in (dim, dim - 2):
        ok, fault = involution_from_gram(make_space(k))
        if not ok:
            return False, f"D={k}: {fault}"
    bad = next((f"{check} fails at {details}" for check, ok, details in _map_checks((dim,)) if not ok), "")
    return not bad, bad or f"from lemma:preserves-form, lemma:complement and the Gram tables at D={dim} and D={dim - 2}"


def lemma_checks(cob: CobMatrix) -> list[tuple[str, bool, str]]:
    """The induction that proves B X = W, for D >= 2, as (check, ok, details).

    At every level k = 2..D every tau_i preserves the form and its image is a
    complement of F2 e_i in the perp of e_i, so G Z_i = 2 Z_i G' makes the
    push of a (k-2)-row the row of the pushed member; `push_up` made the
    pushes agree as it built each level, and every row but the zero member's
    must be the cached level's.  At every level k = 0..D the zero row expands 1_V.
    """
    fam = cob.family
    keys = [e.key for e in fam.entries]
    checks = _map_checks(range(2, fam.dim + 1, 2))

    def by_key(r: int) -> dict[int, int]:
        return {keys[c]: v for c, v in cob.num[r].items()}

    rows = expansion_rows(fam.dim)
    bad = next((r for r, key in enumerate(keys) if key and rows.get(key) != by_key(r)), None)
    details = "" if bad is None else f"member {fam.entries[bad].subspace.rows} differs from its pushes"
    checks.append(("lemma:push-agreement", bad is None, details))

    for k in range(0, fam.dim + 1, 2):
        got = [0] * (1 << k)
        for key, v in (expansion_rows(k)[0] if k < fam.dim else by_key(fam.index_of_key[0])).items():
            for u in make_space(k).interval_span(key).vectors():
                got[u] += v
        if got != [1] * len(got):
            break
    checks.append(("lemma:zero-row-residual", got == [1] * len(got), f"B x - 1_V is not zero at D={k}"))
    return checks
