"""Scale smoke: analyze pairs past the default n cap.

Run as `PYTHONPATH=src python tests/scale_smoke.py FAMILY`, FAMILY one of
- `low-d`: three seeded pairs at n = 14, d = 2;
- `high-d`: seeded pairs with d = n - 3 at n = 10, 11, 12;
- `sums`: three block-diagonal sums of the bijective and injective examples,
  at n = 12, 15 and 15.
Seeded entries come from one `random.Random(7)` in [-3, 3]. The n cap is 16,
and for the sums the block cap is 16 too. Every analysis must be decided and
its report must verify, else the exit status is 1. A sum must also take the
class its blocks predict: a direct sum is injective (or bijective) iff every
block is.
pytest does not collect this file.
"""

import random
import sys
from fractions import Fraction

from expbij.analyzer import (
    CLASS_BIJECTIVE,
    CLASS_INJECTIVE,
    CLASS_NOT_INJECTIVE,
    Caps,
    ExponentialMapSpec,
    analyze,
)
from expbij.linalg import RationalMatrix
from expbij.report import build_report, verify_certificate
from test_analyzer import EX1, EX2, FACE_GAP, _random_full_rank, sv_example

SUM_CAPS = Caps(max_n_enumeration=16, max_blocks=16)


def block_diagonal(mats):
    """The block-diagonal matrix of mats, in order."""
    n = sum(m.cols for m in mats)
    rows, at = [], 0
    for m in mats:
        rows += [[0] * at + list(r) + [0] * (n - at - m.cols) for r in m.row_tuples]
        at += m.cols
    return RationalMatrix(rows)


def direct_sum(specs):
    return ExponentialMapSpec(block_diagonal([s.coeff for s in specs]),
                              block_diagonal([s.exponents for s in specs]))


def predicted_class(blocks):
    """The class of a direct sum from the classes of its blocks."""
    classes = {analyze(b, SUM_CAPS).classification for b in blocks}
    if CLASS_NOT_INJECTIVE in classes:
        return CLASS_NOT_INJECTIVE
    return CLASS_BIJECTIVE if classes == {CLASS_BIJECTIVE} else CLASS_INJECTIVE


def seeded_pairs(shapes):
    rng = random.Random(7)
    for label, d, n in shapes:
        spec = ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n))
        yield label, spec, Caps(max_n_enumeration=16), None


def sums():
    sv1, sv3 = sv_example(Fraction(1, 2)), sv_example(Fraction(3, 2))
    for label, blocks in (("sv(1/2) + EX1 + EX2", [sv1, EX1, EX2]),
                          ("sv(1/2) + sv(3/2) + EX1", [sv1, sv3, EX1]),
                          ("EX1 + EX2 + FACE_GAP + EX1 + EX2", [EX1, EX2, FACE_GAP, EX1, EX2])):
        yield label, direct_sum(blocks), SUM_CAPS, predicted_class(blocks)


FAMILIES = {
    "low-d": lambda: seeded_pairs([(f"pair {k}", 2, 14) for k in range(3)]),
    "high-d": lambda: seeded_pairs([(f"n = {n}", n - 3, n) for n in (10, 11, 12)]),
    "sums": sums,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FAMILIES:
        sys.exit(f"usage: scale_smoke.py {{{','.join(FAMILIES)}}}")
    for label, spec, caps, want in FAMILIES[sys.argv[1]]():
        rep = analyze(spec, caps)
        ok = rep.classification != "inconclusive" and verify_certificate(build_report(rep, {}))
        print(f"{label}: {rep.classification}, {'verified' if ok else 'NOT decided and verified'}")
        if not ok:
            sys.exit(1)
        if want is not None and rep.classification != want:
            sys.exit(f"{label}: the blocks predict {want}")
