"""Scale smoke: analyze pairs past the default n cap, and print a large
sign set through the CLI.

Run as `PYTHONPATH=src python tests/scale_smoke.py FAMILY`, FAMILY one of
- `low-d`: three seeded pairs at n = 14, d = 2;
- `high-d`: seeded pairs with d = n - 3 at n = 10, 11, 12;
- `sums`: three block-diagonal sums of the bijective and injective examples,
  at n = 12, 15 and 15;
- `big-sum`: `sv(1/2) + sv(1/2) + sv(1/2)` at n = 18, d = 9, which reaches
  the exact iii search with 59,318 candidates; it stays fast only because a
  candidate whose positive part is not positively dependent is skipped;
- `cones`: the pairs of `test_cli.ABOVE_CAP_CONES`, n = 13 to 20, at the
  default caps, where `robust_coefficients` is read off the facets;
- `matroid`: `expbij matroid covectors` on a seeded (n, d) = (12, 6) matrix,
  whose output must have one line per covector, in string order; the
  covectors and vectors of it and of a seeded (14, 7) matrix must equal
  those of the whole prefix tree (`sign_oracles.orthogonal_masks_tree`),
  and their faces, the OR-closure of the facets, those of the tree over
  the circuits with only + allowed;
- `injectivity`: seeded pairs at (n, d) = (16, 2), (18, 3), (16, 8) and
  (20, 17) at the default caps, where i fails: each must carry a common sign
  vector, found by the joint prefix search with no cap, in a report that
  verifies; and the moment curves of `test_cli.ABOVE_CAP_CONES` at n = 16
  and 20, where i holds; the time of each analysis and of i is printed;
- `crn`: reaction-network chains, cycles and binding trees
  (`test_crn.family_network`) at 12, 16 and 20 species, under mass action
  and under seeded kinetic orders; each structure must equal the Fraction
  oracle (`sign_oracles.structure_oracle`), both deficiency-zero verdicts
  must be decided, a mass-action network must get holds/holds (the
  deficiency zero theorem), and the analysis report must verify.
Seeded entries come from one `random.Random(7)` in [-3, 3]. The n cap is 16,
and the sums keep the default block cap of 8; for the big sum the n cap is
18 and the block cap 16.
Every analysis must be decided and its report must verify, and the
`matroid` and `crn` outputs must pass their checks, else the exit status is
1. So must `robust_coefficients` wherever the two cones have the same
facets: only a separating face is enumerated, and only it can take the cap.
A sum must also take the class its blocks predict: a direct sum is
injective (or bijective) iff every block is.
pytest does not collect this file.
"""

import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from expbij.analyzer import (
    CLASS_BIJECTIVE,
    CLASS_INJECTIVE,
    CLASS_NOT_INJECTIVE,
    Caps,
    ExponentialMapSpec,
    analyze,
)
from expbij.crn import deficiency_zero_gmak, parse_network, robust_deficiency_zero_gmak, structure
from expbij.matroid import OrientedMatroid, _orthogonal_masks, covectors
from expbij.report import build_report, verify_certificate
from sign_oracles import orthogonal_masks_tree, structure_oracle
from test_analyzer import EX1, EX2, FACE_GAP, _random_full_rank, direct_sum, run_python, sv_example
from test_cli import ABOVE_CAP_CONES
from test_crn import family_network

SUM_CAPS = Caps(max_n_enumeration=16)
BIG_SUM_CAPS = Caps(max_n_enumeration=18, max_blocks=16)


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


def big_sum():
    blocks = [sv_example(Fraction(1, 2))] * 3
    yield "sv(1/2) + sv(1/2) + sv(1/2)", direct_sum(blocks), BIG_SUM_CAPS, predicted_class(blocks)


def matroid_covectors():
    """The problems with `expbij matroid covectors` on a seeded (12, 6) matrix,
    and with the covectors, vectors and faces of it and of a seeded (14, 7)
    matrix, which must equal those of the whole prefix tree."""
    rng = random.Random(7)
    W = _random_full_rank(rng, 6, 12)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "W.json"
        path.write_text(json.dumps(W.to_json_dict()))
        proc = run_python("-m", "expbij.cli", "matroid", "covectors", str(path))
    lines = proc.stdout.splitlines()
    print(f"matroid covectors at (12, 6): exit {proc.returncode}, {len(lines)} lines")
    problems = []
    if proc.returncode != 0:
        problems.append(proc.stderr.strip())
    if len(lines) != len(covectors(W)):
        problems.append(f"{len(covectors(W))} covectors")
    if lines != sorted(lines):
        problems.append("the lines are not in string order")
    for M in (W, _random_full_rank(rng, 7, 14)):
        om, n = OrientedMatroid(M), M.cols
        for what, gens in (("covectors", om.circuit_masks), ("vectors", om.cocircuit_masks)):
            start = time.perf_counter()
            got = _orthogonal_masks(gens, n)
            mid = time.perf_counter()
            same = got == orthogonal_masks_tree(gens, n, (1 << 2 * n) - 1)
            print(f"{what} at ({n}, {M.rows}): {len(got)}, {mid - start:.2f} s; "
                  f"the tree {'agrees' if same else 'DISAGREES'}, {time.perf_counter() - mid:.2f} s")
            if not same:
                problems.append(f"{what} at ({n}, {M.rows}) differ from the tree's")
        # the faces, the OR-closure of the facets, against the circuit route
        start = time.perf_counter()
        faces = om.nonneg_covector_masks
        mid = time.perf_counter()
        same = faces == orthogonal_masks_tree(om.circuit_masks, n, (1 << n) - 1)
        print(f"faces at ({n}, {M.rows}): {len(faces)}, {(mid - start) * 1000:.0f} ms; "
              f"the + only tree {'agrees' if same else 'DISAGREES'}, "
              f"{(time.perf_counter() - mid) * 1000:.0f} ms")
        if not same:
            problems.append(f"faces at ({n}, {M.rows}) differ from the + only tree's")
    return problems


def injectivity():
    """The problems with i past the n cap: seeded pairs from one
    `random.Random(7)`, where i fails, and two moment curves, where it holds."""
    rng = random.Random(7)
    pairs = [(f"({n}, {d})", ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n)),
              "fails") for n, d in ((16, 2), (18, 3), (16, 8), (20, 17))]
    pairs += [(label, ABOVE_CAP_CONES[label][0](), "holds")
              for label in ("moment curve, n = 16", "moment curve, n = 20")]
    problems = []
    for label, spec, want in pairs:
        start = time.perf_counter()
        rep = analyze(spec)
        took = time.perf_counter() - start
        i = rep.conditions["i"]
        ok = verify_certificate(build_report(rep, {}))
        print(f"{label}: i {i.verdict} in {rep.runtimes_ms['i'] / 1000:.2f} s, analyze {took:.2f} s, "
              f"{'verified' if ok else 'NOT verified'}"
              + (f"; sigma {i.certificate['common_sign_vector']}" if i.fails else ""))
        if i.verdict != want or not ok or (i.fails and "common_sign_vector" not in i.certificate):
            problems.append(f"{label}: i {i.verdict}, expected {want} with a report that verifies")
    return problems


def crn_networks():
    """The problems with the reaction-network families at 12, 16 and 20
    species; the kinetic orders come from one `random.Random(7)`."""
    rng = random.Random(7)
    problems = []
    for family in ("chain", "cycle", "binding"):
        for s in (12, 16, 20):
            for orders in (None, [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(s)]):
                label = f"{family} {s} {'mass action' if orders is None else 'generalized'}"
                net = parse_network(family_network(family, s, orders))
                start = time.perf_counter()
                st = structure(net)
                mid = time.perf_counter()
                verdict, robust = deficiency_zero_gmak(net), robust_deficiency_zero_gmak(net)
                end = time.perf_counter()
                print(f"{label}: structure {1000 * (mid - start):.1f} ms, verdicts "
                      f"{verdict.verdict}/{robust.verdict} {1000 * (end - mid):.1f} ms")
                if st != structure_oracle(net):
                    problems.append(f"{label}: the structure differs from the oracle's")
                if "inconclusive" in (verdict.verdict, robust.verdict) or verdict.analysis is None:
                    problems.append(f"{label}: verdicts {verdict.verdict}/{robust.verdict} not decided")
                elif not verify_certificate(build_report(verdict.analysis, {})):
                    problems.append(f"{label}: the analysis report does not verify")
                if orders is None and (verdict.verdict, robust.verdict) != ("holds", "holds"):
                    problems.append(f"{label}: a mass-action network with deficiency zero must hold")
    return problems


FAMILIES = {
    "low-d": lambda: seeded_pairs([(f"pair {k}", 2, 14) for k in range(3)]),
    "high-d": lambda: seeded_pairs([(f"n = {n}", n - 3, n) for n in (10, 11, 12)]),
    "sums": sums,
    "big-sum": big_sum,
    "cones": lambda: ((label, make(), Caps(), None) for label, (make, *_) in ABOVE_CAP_CONES.items()),
}


def facets_agree(rep) -> bool:
    """The two cones of the analyzed pair have the same facets."""
    om_w, om_wt = OrientedMatroid(rep.canonical_coeff), OrientedMatroid(rep.canonical_exponents)
    return om_w.nonneg_cocircuit_masks == om_wt.nonneg_cocircuit_masks


if __name__ == "__main__":
    checks = {"matroid": matroid_covectors, "injectivity": injectivity, "crn": crn_networks}
    if len(sys.argv) != 2 or sys.argv[1] not in (*FAMILIES, *checks):
        sys.exit(f"usage: scale_smoke.py {{{','.join((*FAMILIES, *checks))}}}")
    if sys.argv[1] in checks:
        sys.exit("; ".join(checks[sys.argv[1]]()) or None)
    for label, spec, caps, want in FAMILIES[sys.argv[1]]():
        rep = analyze(spec, caps)
        robust = rep.conditions["robust_coefficients"].verdict
        ok = (rep.classification != "inconclusive" and verify_certificate(build_report(rep, {}))
              and (robust != "inconclusive" or not facets_agree(rep)))
        print(f"{label}: {rep.classification}, robust_coefficients {robust}, "
              f"{'verified' if ok else 'NOT decided and verified'}; iii: {rep.conditions['iii'].detail}")
        if not ok:
            sys.exit(1)
        if want is not None and rep.classification != want:
            sys.exit(f"{label}: the blocks predict {want}")
