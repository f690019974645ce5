"""Command-line surface: analyze, matroid, crn, solve.

Exit codes: 0 for definitive verdicts, 2 when a verdict is inconclusive
(an enumeration cap fired), 1 for input errors, 3 when an internal
consistency check fails (a bug, not a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .analyzer import Caps, ExponentialMapSpec, analyze
from .crn import deficiency_zero_gmak, parse_network, robust_deficiency_zero_gmak, structure
from .linalg import InputError, InternalInconsistency, RationalMatrix
from .matroid import chirotope, circuits, cocircuits, covectors, face_lattice, vectors
from .report import build_report, canonical_json, digest_of
from .signs import EnumerationCap

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _load_json(path: str):
    """The JSON document in a UTF-8 file; any failure to read it is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the int-string limit, or nesting
        # deeper than the decoder's recursion limit
        raise InputError(f"malformed JSON in {path}: {exc}")


def _load_matrix(path: str) -> RationalMatrix:
    return RationalMatrix.from_json_dict(_load_json(path))


def _load_vector(path: str, length: int, what: str, positive: bool = False) -> list:
    """A JSON array of `length` numbers that fit a double (not NaN, not
    infinite); booleans are not numbers."""
    v = _load_json(path)
    if not isinstance(v, list):
        raise InputError(f"{what} vector must be a JSON array of numbers")
    if len(v) != length:
        raise InputError(f"{what} vector must have length {length}")
    for x in v:
        if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise InputError(f"{what} vector entries must be finite JSON numbers, got {x!r}")
        if positive and x <= 0:
            raise InputError(f"{what} vector entries must be strictly positive, got {x!r}")
    return v


def _load_caps(path: str | None) -> Caps:
    return Caps.from_json_dict(_load_json(path)) if path else Caps()


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


ROBUST_KEYS = {
    "exponents": ("robust_exponents",),
    "coefficients": ("robust_coefficients",),
    "both": ("robust_both",),
    "all": ("robust_exponents", "robust_coefficients", "robust_both"),
}


def _cmd_analyze(args) -> int:
    coeff = _load_matrix(args.coeff)
    exponents = _load_matrix(args.exp)
    caps = _load_caps(args.caps)
    spec = ExponentialMapSpec(coeff, exponents)
    rep = analyze(spec, caps)
    keep = set(ROBUST_KEYS[args.robust])
    rep.conditions = {
        k: v for k, v in rep.conditions.items()
        if not k.startswith("robust_") or k in keep
    }
    inputs = {"coeff_sha256": digest_of(coeff.to_json_dict()),
              "exp_sha256": digest_of(exponents.to_json_dict())}
    report = build_report(rep, inputs)
    _emit(canonical_json(report), args.out)
    return EXIT_INCONCLUSIVE if rep.classification == "inconclusive" else EXIT_OK


def _cmd_matroid(args) -> int:
    mat = _load_matrix(args.matrix)
    if args.what == "chirotope":
        chi = chirotope(mat)
        lines = [",".join(str(i + 1) for i in I) + " " + {1: "+", 0: "0", -1: "-"}[s]
                 for I, s in chi.sorted_items()]
    else:
        sign_set = {"circuits": circuits, "cocircuits": cocircuits, "covectors": covectors,
                    "vectors": vectors, "faces": lambda m: face_lattice(m).faces}[args.what]
        lines = sorted(str(t) for t in sign_set(mat))
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK


def _cmd_crn(args) -> int:
    if args.action != "analyze":
        raise InputError(f"unknown crn action: {args.action}")
    doc = _load_json(args.network)
    net = parse_network(doc)
    caps = _load_caps(args.caps)
    struct = structure(net)
    verdict = deficiency_zero_gmak(net, caps)
    robust = robust_deficiency_zero_gmak(net, caps)
    report = {
        "tool": {"name": "expbij", "version": __version__},
        "inputs": {"network_sha256": digest_of(doc)},
        "network": {
            "species": list(net.species),
            "vertices": net.num_vertices,
            "edges": len(net.edges),
            "components": struct.num_components,
            "weakly_reversible": struct.weakly_reversible,
            "deficiency": struct.deficiency,
            "kinetic_deficiency": struct.kinetic_deficiency,
            "mass_action": net.is_mass_action,
        },
        "unique_equilibrium": verdict.to_json_dict(),
        "robust_unique_equilibrium": robust.to_json_dict(),
    }
    _emit(canonical_json(report), args.out)
    if "inconclusive" in (verdict.verdict, robust.verdict):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_solve(args) -> int:
    from .numeric import NumericMapInstance, multi_start_solve, solve  # the only numpy user

    spec = ExponentialMapSpec(_load_matrix(args.coeff), _load_matrix(args.exp))
    c = _load_vector(args.c, spec.n, "parameter", positive=True)
    y = _load_vector(args.y, spec.d, "target")
    instance = NumericMapInstance.from_spec(spec, c)
    if args.starts > 1:
        solutions = multi_start_solve(instance, y, starts=args.starts, seed=args.seed)
        result = {
            "status": "converged" if solutions else "no-solution-found",
            "solutions": [[float(v) for v in s] for s in solutions],
            "starts": args.starts,
            "seed": args.seed,
        }
    else:
        res = solve(instance, y)
        result = {
            "status": res.status,
            "x": None if res.x is None else [float(v) for v in res.x],
            "residual": res.residual,
            "iterations": res.iterations,
            "seed": args.seed,
        }
    _emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _seed(text: str) -> int:
    """A --seed value; numpy's default_rng takes only nonnegative seeds."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _starts(text: str) -> int:
    """A --starts value: the number of starting points, at least one."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    p = _Parser(prog="expbij", description=(
        "Exact injectivity/bijectivity analysis of families of exponential maps, "
        "with certificates, a reaction-network front-end, and a numeric solver."))
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify a coefficient/exponent matrix pair")
    a.add_argument("--coeff", required=True, help="coefficient matrix JSON file")
    a.add_argument("--exp", required=True, help="exponent matrix JSON file")
    a.add_argument("--caps", help="caps JSON file")
    a.add_argument("--robust", choices=sorted(ROBUST_KEYS), default="all")
    a.add_argument("--out", help="write the report here instead of stdout")
    a.set_defaults(fn=_cmd_analyze)

    m = sub.add_parser("matroid", help="print oriented-matroid data of a matrix")
    m.add_argument("what", choices=["circuits", "cocircuits", "covectors", "vectors", "chirotope",
                                    "faces"])
    m.add_argument("matrix", help="matrix JSON file")
    m.set_defaults(fn=_cmd_matroid)

    c = sub.add_parser("crn", help="analyze a reaction network document")
    c.add_argument("action", choices=["analyze"])
    c.add_argument("network", help="network JSON file")
    c.add_argument("--caps", help="caps JSON file")
    c.add_argument("--out", help="write the report here instead of stdout")
    c.set_defaults(fn=_cmd_crn)

    s = sub.add_parser("solve", help="numerically solve F_c(x) = y")
    s.add_argument("--coeff", required=True)
    s.add_argument("--exp", required=True)
    s.add_argument("--c", required=True, help="positive parameter vector JSON file")
    s.add_argument("--y", required=True, help="target vector JSON file")
    s.add_argument("--starts", type=_starts, default=1)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_solve)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except EnumerationCap as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
