"""The canonical report of each spec in a fixed set hashes as recorded.

The specs are the random corpus (200), the zero-heavy corpus (60), ten seeded
direct sums, sv_example at the nine SV_ALPHAS and EX1, EX2, FACE_GAP and
CC_EXAMPLE; each is analysed at the default caps and with the n cap one
below n. A change that moves canonical report bytes must say why in
CHANGES.md and re-record the file:

    PYTHONPATH=src python tests/test_report_digests.py --record
"""

import hashlib
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from expbij.analyzer import AnalysisReport, Caps, analyze
from expbij.report import build_report, canonical_json
from test_analyzer import (
    CC_EXAMPLE,
    EX1,
    EX2,
    FACE_GAP,
    SV_ALPHAS,
    _corpus,
    _seeded_sums,
    _zero_heavy_corpus,
    sv_example,
)

DIGESTS = Path(__file__).with_name("report_digests.json")


def _specs():
    yield from ((f"corpus {k}", s) for k, s in enumerate(_corpus(200)))
    yield from ((f"zero-heavy {k}", s) for k, s in enumerate(_zero_heavy_corpus(60)))
    yield from ((f"sum {k}", s) for k, s in enumerate(_seeded_sums(10)))
    yield from ((f"sv {a}", sv_example(Fraction(a))) for a in SV_ALPHAS)
    yield from (("EX1", EX1), ("EX2", EX2), ("FACE_GAP", FACE_GAP), ("CC_EXAMPLE", CC_EXAMPLE))


@cache
def _analyses() -> dict[str, AnalysisReport]:
    """The analysis per spec and cap, keyed "<spec> @ <cap>"."""
    return {f"{label} @ {cap}": analyze(spec, caps) for label, spec in _specs()
            for cap, caps in (("default", Caps()), ("n-1", Caps(max_n_enumeration=spec.n - 1)))}


def report_digests() -> dict[str, str]:
    """sha256 of the canonical report per spec and cap, keyed "<spec> @ <cap>"."""
    return {key: hashlib.sha256(canonical_json(build_report(rep, {})).encode()).hexdigest()
            for key, rep in _analyses().items()}


def test_canonical_reports_hash_as_recorded():
    want = json.loads(DIGESTS.read_text())
    got = report_digests()
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} of {len(want)} reports changed, first {changed[:5]}"


def test_i_past_the_cap_equals_i_at_default_caps():
    # i takes the minor form's verdict at every n, and a failing i finds its
    # common sign vector by the joint search at every n
    analyses = _analyses()
    for key, rep in analyses.items():
        if key.endswith(" @ n-1"):
            default = analyses[key.replace(" @ n-1", " @ default")]
            assert rep.conditions["i"] == default.conditions["i"], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(report_digests(), indent=0) + "\n")
    print(f"recorded {DIGESTS}")
