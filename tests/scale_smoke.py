"""Scale smoke: analyze seeded random pairs past the default n cap.

Run as `PYTHONPATH=src python tests/scale_smoke.py FAMILY`, FAMILY `low-d`
(three pairs at n = 14, d = 2) or `high-d` (d = n - 3 at n = 10, 11, 12).
Entries come from one `random.Random(7)` in [-3, 3] and the n cap is 16.
Every analysis must be decided and its report must verify, else the exit
status is 1. pytest does not collect this file.
"""

import random
import sys

from expbij.analyzer import Caps, ExponentialMapSpec, analyze
from expbij.report import build_report, verify_certificate
from test_analyzer import _random_full_rank

FAMILIES = {
    "low-d": [(f"pair {k}", 2, 14) for k in range(3)],
    "high-d": [(f"n = {n}", n - 3, n) for n in (10, 11, 12)],
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FAMILIES:
        sys.exit(f"usage: scale_smoke.py {{{','.join(FAMILIES)}}}")
    rng = random.Random(7)
    for label, d, n in FAMILIES[sys.argv[1]]:
        spec = ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n))
        rep = analyze(spec, Caps(max_n_enumeration=16))
        ok = rep.classification != "inconclusive" and verify_certificate(build_report(rep, {}))
        print(f"{label}: {rep.classification}, {'verified' if ok else 'NOT decided and verified'}")
        if not ok:
            sys.exit(1)
