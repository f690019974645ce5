"""Outside-in span tracing of the expbij layers.

The tracer wraps the package's public functions from the benchmark's side: it
replaces each traced function in every expbij module that binds it (so
`feasible` is wrapped in `lp`, `analyzer` and `matroid` alike) and wraps
`RationalMatrix.det` on the class. No file of the package changes.

Every call made inside an operation becomes a span with a name, a start, an
end, the span that called it and the operation id. Spans stay in memory in
flat arrays and are written out when the run ends. A span's self time is its
duration minus the durations of its child spans; calls are synchronous on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import re
import sys
from array import array

# module -> functions traced in it
TRACED = {
    "linalg": ("kernel_basis", "rref", "rank", "maximal_minors"),
    "lp": ("feasible", "positive_kernel_vector", "realize_kernel_sign", "realize_sign_vector"),
    "signs": ("composition_closure", "minimal_support_members"),
    "matroid": ("circuits", "cocircuits", "covectors", "vectors", "face_lattice",
                "minty_alternative", "chirotope", "cocircuits_from_chirotope"),
    "analyzer": ("analyze", "injectivity_via_signs", "injectivity_via_minors", "condition_ii",
                 "condition_iii_exact", "condition_iv", "newton_polytope_sufficient",
                 "closure_cc", "closure_cc_prime", "robust_exponents", "robust_coefficients",
                 "robust_both"),
    "report": ("build_report", "canonical_json", "verify_certificate"),
    "crn": ("parse_network", "structure", "deficiency_zero_gmak", "robust_deficiency_zero_gmak"),
}

# analyzer conditions are named by their key in AnalysisReport.conditions
CONDITION_KEYS = {
    "injectivity_via_signs": "i",
    "injectivity_via_minors": "injectivity_minors",
    "condition_ii": "ii",
    "condition_iii_exact": "iii_exact",
    "condition_iv": "iv",
    "newton_polytope_sufficient": "newton",
    "closure_cc": "cc",
    "closure_cc_prime": "cc_prime",
}

ROOT_SPAN = "bench.op"  # one per operation; the parent of its top-level calls

_PARTITIONS = re.compile(r"(\d+) ordered partitions tried")


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _note_feasible(args, kwargs, result, dur):
    return {"rows": len(args[0].forms), "feasible": int(result is not None)}


def _note_closure(args, kwargs, result, dur):
    return {"gens": _size(args[0]), "out_size": len(result)}


def _note_count(args, kwargs, result, dur):
    return {"count": len(result)}


def _note_iii(args, kwargs, result, dur):
    m = _PARTITIONS.search(result.detail or "")
    return {"partitions": int(m.group(1)) if m else 0}


def _note_analyze(args, kwargs, result, dur):
    # runtimes_ms leaves out the up-front sign-set enumeration in analyze
    return {"unattributed_s": dur - sum(result.runtimes_ms.values()) / 1000}


def _note_bytes(args, kwargs, result, dur):
    return {"bytes": len(result.encode())}


NOTES = {
    "lp.feasible": _note_feasible,
    "signs.composition_closure": _note_closure,
    "matroid.circuits": _note_count,
    "matroid.cocircuits": _note_count,
    "analyzer.iii_exact": _note_iii,
    "analyzer.analyze": _note_analyze,
    "report.canonical_json": _note_bytes,
}


def span_name(module: str, function: str) -> str:
    if module == "analyzer":
        function = CONDITION_KEYS.get(function, function)
    return f"{module}.{function}"


class Tracer:
    def __init__(self, now):
        self._now = now  # the clock spans are read from, in seconds
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.nid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op = -1

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._now())
        return idx

    def _close(self, idx: int) -> float:
        t = self._now()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def begin_op(self, op_id: int):
        self._op = op_id
        self._root = self._open(ROOT_SPAN)

    def end_op(self):
        self._close(self._root)
        self._op = -1

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:  # outside an operation (checks, set-up): not recorded
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result, dur)
            return result

        return traced

    def install(self):
        """Wrap every traced function; returns a function that undoes it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "expbij" or name.startswith("expbij."))}
        wrappers = {}
        for short, functions in TRACED.items():
            home = mods[f"expbij.{short}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrappers[id(original)] = (original, self.wrap(span_name(short, fn_name), original))
        undo = []
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        cls = mods["expbij.linalg"].RationalMatrix
        det = cls.det
        cls.det = self.wrap("linalg.det", det)
        undo.append((cls, "det", det))

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return restore

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, incl_s, self_s and the sum of each note."""
        n = len(self.nid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.nid[i]]
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["incl_s"] += dur
            s["self_s"] += dur - child[i]
            for k, v in self.notes.get(i, {}).items():
                s[k] = s.get(k, 0) + v
        return out

    def per_op_calls(self, names) -> dict[int, dict[str, int]]:
        """Exact call counts of the given span names, per operation id."""
        wanted = {self._name_ids[n]: n for n in names if n in self._name_ids}
        out: dict[int, dict[str, int]] = {}
        for i in range(len(self.nid)):
            name = wanted.get(self.nid[i])
            if name is not None:
                counts = out.setdefault(self.op[i], dict.fromkeys(names, 0))
                counts[name] += 1
        return out

    def write_spans(self, path):
        """One line per span: id, op, parent, name, start and end in microseconds
        from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as f:
            f.write("id\top\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.nid)):
                f.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.nid[i]]}\t"
                        f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n")


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, span, statistic). Statistics other than the
# ratios are per operation (or per call, where the unit says so), so runs that
# complete different numbers of operations stay comparable.

def _calls(span):
    return (f"{span}.calls", "count/op", span, "calls")


def _self(span):
    return (f"{span}.self_s", "s/op", span, "self_s")


def _incl(span):
    return (f"{span}.incl_s", "s/op", span, "incl_s")


LAYER_METRICS = [
    # lp
    _calls("lp.feasible"), _self("lp.feasible"),
    ("lp.feasible.rows", "rows/call", "lp.feasible", "rows/call"),
    ("lp.feasible.feasible_ratio", "ratio", "lp.feasible", "feasible/call"),
    _calls("lp.positive_kernel_vector"), _calls("lp.realize_kernel_sign"),
    _calls("lp.realize_sign_vector"),
    # signs
    _calls("signs.composition_closure"), _self("signs.composition_closure"),
    ("signs.composition_closure.gens", "count/call", "signs.composition_closure", "gens/call"),
    ("signs.composition_closure.out_size", "count/call", "signs.composition_closure", "out_size/call"),
    _self("signs.minimal_support_members"),
    # matroid
    _calls("matroid.circuits"), _self("matroid.circuits"),
    ("matroid.circuits.count", "count/call", "matroid.circuits", "count/call"),
    _calls("matroid.cocircuits"), _self("matroid.cocircuits"),
    ("matroid.cocircuits.count", "count/call", "matroid.cocircuits", "count/call"),
    _self("matroid.face_lattice"), _calls("matroid.minty_alternative"),
    # linalg
    *[m for f in ("kernel_basis", "rref", "rank", "maximal_minors", "det")
      for m in (_calls(f"linalg.{f}"), _self(f"linalg.{f}"))],
    # analyzer
    *[_incl(f"analyzer.{c}") for c in ("i", "injectivity_minors", "ii", "iii_exact", "iv", "newton",
                                        "cc", "cc_prime", "robust_exponents",
                                        "robust_coefficients", "robust_both")],
    _calls("analyzer.iii_exact"),
    ("analyzer.iii_exact.partitions", "count/op", "analyzer.iii_exact", "partitions"),
    _incl("analyzer.analyze"),
    ("analyzer.analyze.unattributed_s", "s/op", "analyzer.analyze", "unattributed_s"),
    # report
    _self("report.build_report"), _self("report.canonical_json"), _self("report.verify_certificate"),
    ("report.bytes", "bytes/op", "report.canonical_json", "bytes"),
    # crn
    _self("crn.parse_network"), _self("crn.structure"), _calls("crn.structure"),
    _incl("crn.deficiency_zero_gmak"), _incl("crn.robust_deficiency_zero_gmak"),
]


def layer_metrics(summary: dict, ops: int) -> dict[str, tuple[float, str]]:
    out = {}
    for name, unit, span, stat in LAYER_METRICS:
        s = summary.get(span, {})
        if stat.endswith("/call"):
            calls = s.get("calls", 0)
            value = s.get(stat[:-len("/call")], 0) / calls if calls else 0.0
        else:
            value = s.get(stat, 0) / ops
        out[name] = (value, unit)
    return out


def top_self(summary: dict, k: int = 5) -> list[tuple[str, float, float]]:
    """The k span names with the most self time: (name, self_s, share of all)."""
    total = sum(s["self_s"] for s in summary.values())
    ranked = sorted(((n, s["self_s"]) for n, s in summary.items() if n != ROOT_SPAN),
                    key=lambda t: -t[1])[:k]
    return [(n, v, v / total if total else 0.0) for n, v in ranked]
