"""Batch command-line front end.

Every library operation is exposed as a subcommand that prints one
JSON report (or CSV for grid sweeps) to stdout and exits 0; validation
problems exit 2, cap/ceiling refusals exit 3.  Exact values appear as
rational strings like "3/2" with a parallel ``*_decimal`` float field;
non-finite floats are serialized as the strings "inf"/"-inf"/"nan" to
stay inside strict JSON.

Determinism contract: identical argv (plus seed) produces
byte-identical stdout.  ``--manifest PATH`` additionally records the
run — subcommand, argv, parameters, seed, version, wall time, and a
SHA-256 of the output — and re-running the recorded argv reproduces
the digest.  Wall time lives only in the manifest, never in stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__, avoidance, contraction, extremal, gridhg
from .config import Limits, override_limits
from .errors import CapExceededError
from .hypergraphs import (
    KUniformHypergraph,
    check_dims,
    multipartite_lambda_star,
    random_uniform_hypergraph,
    validate_clique_cover,
)
from .matrices import (
    BinaryMatrix,
    check_densities,
    check_sampling,
    count_matrix_copies,
    densities,
    sampling_estimates,
)
from .perms import (
    Permutation,
    copy_count_distribution,
    count_occurrences,
    enumerate_occurrences,
)

# ---------------------------------------------------------------- parsing


def _pattern_arg(text: str) -> Permutation:
    try:
        return Permutation.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_arg(text: str) -> Fraction:
    if "." in text:
        raise argparse.ArgumentTypeError(
            f"{text!r}: decimals are rejected to keep arithmetic exact; "
            "write a rational like 1/2"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _rational_grid_arg(text: str) -> list[Fraction]:
    return [_rational_arg(tok.strip()) for tok in text.split(",") if tok.strip()]


def _int_grid_arg(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from None


def _load_matrix(path: str) -> BinaryMatrix:
    text = _read(path, "matrix")
    try:
        return BinaryMatrix.from_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_hypergraph(path: str) -> KUniformHypergraph:
    text = _read(path, "hypergraph")
    try:
        if text.lstrip().startswith("{"):
            return KUniformHypergraph.from_json_dict(json.loads(text))
        return KUniformHypergraph.from_text(text)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ------------------------------------------------------------- rendering


def _num(x: "float | None") -> "float | str | None":
    """Floats for JSON, with non-finite values as strings."""
    if x is None:
        return None
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` and a newline,
    written by ``_json_text``."""
    return _json_text(report, "") + "\n"


_json_str = json.encoder.encode_basestring_ascii


def _json_text(v, pad: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it,
    with every line after the first indented by ``pad``.

    The types a report holds are written here, by exact type: strings,
    ints, floats, bools, None, dicts with ``str`` keys and non-empty
    lists.  A list of int rows of one non-zero width, such as a
    hypergraph's edges, is one %-format.
    Anything else (tuples, subclasses, other keys, empty containers)
    goes to ``json.dumps`` itself.
    """
    kind = type(v)
    if kind is str:
        return _json_str(v)
    if kind is int:
        return int.__repr__(v)
    if kind is float:
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    if kind is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict and v and all(type(key) is str for key in v):
        body = sep.join(f"{_json_str(key)}: {_json_text(v[key], inner)}" for key in sorted(v))
        return f"{{\n{inner}{body}\n{pad}}}"
    if kind is list and v:
        if (set(map(type, v)) == {list} and v[0] and set(map(len, v)) == {len(v[0])}
                and set(map(type, flat := tuple(itertools.chain.from_iterable(v)))) == {int}):
            cell = ",\n" + inner + "  "
            row = f"[\n{inner}  " + cell.join(["%d"] * len(v[0])) + f"\n{inner}]"
            body = sep.join([row] * len(v)) % flat
        else:
            body = sep.join(_json_text(x, inner) for x in v)
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _render_csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        out = []
        for f in fields:
            v = row.get(f)
            if v is None:
                out.append("")
            elif isinstance(v, (list, dict)):
                out.append(json.dumps(v, sort_keys=True, separators=(",", ":")))
            else:
                out.append(v)
        writer.writerow(out)
    return buf.getvalue()


# ------------------------------------------------------------- handlers
#
# Each handler returns (report_dict, csv_rows, csv_fields); csv_rows is
# None when the generic single-row flattening is fine.

EXPECT_FIELDS = [
    "n", "k", "pi", "alpha",
    "exact", "exact_decimal", "bound", "empirical_constant",
]

MIN_COPIES_FIELDS = [
    "n", "a", "pi", "min_copies",
    "reference_bound", "reference_bound_decimal", "witness", "method",
]


def _cmd_count(args):
    c = count_occurrences(args.sigma, args.pi)
    return {"sigma": args.sigma.to_text(), "pi": args.pi.to_text(), "count": c}


def _cmd_occurrences(args):
    occ = enumerate_occurrences(args.sigma, args.pi)
    return {
        "sigma": args.sigma.to_text(),
        "pi": args.pi.to_text(),
        "count": len(occ),
        "occurrences": [list(o) for o in occ],
    }


def _cmd_distribution(args):
    dist = copy_count_distribution(args.n, args.pi)
    return dist.to_json_dict()


def _cmd_avoiders(args):
    # No file is the complete hypergraph, which is counted, never built.
    lam = _load_hypergraph(args.lambda_file) if args.lambda_file else None
    rep = avoidance.enumerate_avoiders(args.n, args.pi, lam, collect=args.list)
    out = {
        "n": rep.n,
        "k": rep.k,
        "pi": rep.pattern.to_text(),
        "lambda_edges": rep.lambda_edge_count,
        "count": rep.count,
    }
    if args.list:
        out["avoiders"] = [p.to_text() for p in rep.avoiders]
    return out


def _expect_cell(pi: Permutation, rep: avoidance.ExpectationReport) -> dict:
    return {
        "n": rep.n,
        "k": rep.k,
        "pi": pi.to_text(),
        "alpha": str(rep.alpha),
        "exact": str(rep.exact_value),
        "exact_decimal": float(rep.exact_value),
        "bound": _num(rep.bound_value),
        "empirical_constant": _num(rep.empirical_constant),
    }


def _cmd_expect(args):
    k = args.k if args.k is not None else len(args.pi)
    grid = args.alpha_grid
    reports = avoidance.exact_expected_avoiders_grid(
        args.n, k, args.pi, [args.alpha] if grid is None else grid)
    cells = [_expect_cell(args.pi, rep) for rep in reports]
    return cells[0] if grid is None else ({"grid": cells}, cells, EXPECT_FIELDS)


def _cmd_expect_mc(args):
    k = args.k if args.k is not None else len(args.pi)
    if args.estimator == "sigma":
        check_dims(args.n, k, args.n, len(args.pi))
        est = avoidance.mc_expected_avoiders_by_sigma(
            args.n, args.pi, args.alpha, args.samples, args.seed)
    else:
        est = avoidance.mc_expected_avoiders_by_lambda(
            args.n, k, args.pi, args.alpha, args.samples, args.seed)
    return {
        "estimator": est.method,
        "n": est.n,
        "k": est.k,
        "pi": args.pi.to_text(),
        "alpha": str(est.alpha),
        "samples": est.samples,
        "seed": est.seed,
        "estimate": str(est.estimate),
        "estimate_decimal": float(est.estimate),
        "std_error": _num(est.std_error),
    }


def _cmd_hypergraph(args):
    h = random_uniform_hypergraph(args.n, args.k, args.alpha, args.seed)
    return h.to_json_dict()


def _cmd_lambda_star(args):
    lam = multipartite_lambda_star(args.n, args.k)
    return lam.to_json_dict()


def _cmd_clique_cover(args):
    lam = _load_hypergraph(args.lambda_file)
    text = _read(args.cliques_file, "cliques")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.cliques_file}: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"{args.cliques_file}: expected a JSON list of cliques")
    cover = validate_clique_cover(lam, raw)
    return {
        "valid": True,
        "clique_size": cover.clique_size,
        "cliques": len(cover.cliques),
        "min_membership": cover.min_membership,
        "max_membership": cover.max_membership,
    }


def _matrix_report(m: BinaryMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "ones": m.ones, "lines": m.row_lines()}


def _cmd_contract(args):
    m = _load_matrix(args.from_file)
    if args.b is None:
        result = contraction.contract2(m)
        report = {"mode": "2"} | _matrix_report(result)
    else:
        result = contraction.contract_b(m, args.b)
        report = {"mode": "b", "b": str(args.b)} | _matrix_report(result)
    if args.out:
        Path(args.out).write_text(result.to_text() + "\n")
    return report


def _cmd_preimage(args):
    m = _load_matrix(args.from_file)
    return {"ones": m.ones, "preimages": contraction.preimage_count_contract2(m)}


def _cmd_extremal(args):
    m = extremal.extremal_block_diagonal(args.n, args.a)
    report = {
        "n": args.n,
        "a": args.a,
        "block_side": args.a // args.n,
        "blocks": args.n * args.n // args.a,
    } | _matrix_report(m)
    if args.pi is not None:
        check_densities(m, args.pi)  # as sample-density's exact pass
        bound = extremal.reference_bound(args.n, args.a, len(args.pi))
        report["pi"] = args.pi.to_text()
        report["copies"] = count_matrix_copies(m, args.pi)
        report["reference_bound"] = str(bound)
        report["reference_bound_decimal"] = float(bound)
    if args.out:
        Path(args.out).write_text(m.to_text() + "\n")
    return report


def _min_copies_cell(n: int, a: int, pi: Permutation) -> dict:
    rep = extremal.min_copies_brute(n, a, pi)
    return {
        "n": rep.n,
        "a": rep.a,
        "pi": pi.to_text(),
        "min_copies": rep.min_copies,
        "reference_bound": str(rep.reference_bound),
        "reference_bound_decimal": float(rep.reference_bound),
        "witness": rep.witness.row_lines(),
        "method": rep.method,
    }


def _cmd_min_copies(args):
    if args.a_grid is not None:
        cells = [_min_copies_cell(args.n, a, args.pi) for a in args.a_grid]
        return {"grid": cells}, cells, MIN_COPIES_FIELDS
    return _min_copies_cell(args.n, args.a, args.pi)


def _cmd_max_ones(args):
    rep = extremal.max_ones_avoiding(args.n, args.pi, method=args.mode)
    return {
        "n": rep.n,
        "pi": rep.pattern.to_text(),
        "max_ones": rep.max_ones,
        "ratio": str(rep.ratio),
        "ratio_decimal": float(rep.ratio),
        "method": rep.method,
        "witness": rep.witness.row_lines(),
    }


def _cmd_sna(args):
    fam = extremal.sna_family(args.n, args.a)
    report = {"n": fam.n, "a": fam.a, "q": fam.q, "r": fam.r, "size": fam.size}
    if args.pi is not None:
        ver = extremal.verify_sna_budget(args.n, args.a, args.pi)
        report |= {
            "pi": args.pi.to_text(),
            "budget": ver.budget,
            "linear_cap": ver.linear_cap,
            "max_observed": ver.max_observed,
            "within_budget": ver.within_budget,
        }
    if args.list:
        report["members"] = [p.to_text() for p in fam.members()]
    return report


def _cmd_snm(args):
    c = extremal.count_snm(args.n, args.m, args.pi)
    return {"n": args.n, "m": args.m, "pi": args.pi.to_text(), "count": c}


def _build_h(args):
    """The grid hypergraph and the edge count of its index hypergraph."""
    # No file is the complete hypergraph, which is counted, never built.
    lam = _load_hypergraph(args.lambda_file) if args.lambda_file else None
    h = gridhg.build_h(args.n, args.pi, lam)
    return h, math.comb(h.n, h.k) if lam is None else lam.edge_count


def _cmd_build_h(args):
    h, lambda_edges = _build_h(args)
    return h.to_json_dict() | {
        "pi": args.pi.to_text(),
        "lambda_edges": lambda_edges,
        "vertex_count": h.vertex_count,
        "edge_count": len(h.edges),
    }


def _cmd_delta(args):
    h, lambda_edges = _build_h(args)
    return {
        "grid_side": h.n,
        "k": h.k,
        "lambda_edges": lambda_edges,
        "edge_count": len(h.edges),
        "ell": args.ell,
        "delta": gridhg.delta_ell(h, args.ell),
    }


def _cmd_independents(args):
    h, lambda_edges = _build_h(args)
    count = gridhg.count_independent_of_size(h, args.size)
    return {
        "grid_side": h.n,
        "k": h.k,
        "lambda_edges": lambda_edges,
        "edge_count": len(h.edges),
        "size": args.size,
        "count": count,
    }


def _cmd_sample_density(args):
    m = _load_matrix(args.from_file)
    # Both passes are refused before either runs: trials and r (exit 2),
    # then the sampling and the exact cost (exit 3).
    check_sampling(m, args.pi, args.r, args.trials)
    check_densities(m, args.pi)
    rep = sampling_estimates(m, args.pi, args.r, args.trials, args.seed)
    exact = densities(m, args.pi)
    return {
        "pi": args.pi.to_text(),
        "r": rep.r,
        "trials": rep.trials,
        "seed": rep.seed,
        "one_mean": str(rep.one_mean),
        "one_mean_decimal": float(rep.one_mean),
        "pi_mean": str(rep.pi_mean),
        "pi_mean_decimal": float(rep.pi_mean),
        "one_se": _num(rep.one_se),
        "pi_se": _num(rep.pi_se),
        "exact_one": str(exact.one_density),
        "exact_pi": str(exact.pi_density),
    }


# ----------------------------------------------------------- the parser


# Built once per process: parsing never changes it, and a parser per call is
# cyclic garbage that piles up between full collections in long-lived callers.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permavoid",
        description="Exact pattern-avoidance combinatorics over hypergraphs.",
    )
    parser.add_argument("--version", action="version", version=f"permavoid {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (default json; csv flattens reports to rows)",
    )
    common.add_argument(
        "--manifest", metavar="PATH",
        help="also write a run manifest (argv, seed, version, output digest)",
    )
    for limit in dataclasses.fields(Limits):  # each flag is named after its field
        common.add_argument(f"--{limit.name.replace('_', '-')}", type=int, metavar="N",
                            help=limit.metadata["help"])

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=handler)
        return p

    p = cmd("count", _cmd_count, "occurrences of a pattern in a permutation")
    p.add_argument("--sigma", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")

    p = cmd("occurrences", _cmd_occurrences, "list the occurrences themselves")
    p.add_argument("--sigma", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")

    p = cmd("distribution", _cmd_distribution, "copy-count histogram over S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")

    p = cmd("avoiders", _cmd_avoiders, "count permutations avoiding over a hypergraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--lambda-file", metavar="PATH",
                   help="index hypergraph (JSON or text); default: complete")
    p.add_argument("--list", action="store_true", help="include the avoiders")

    p = cmd("expect", _cmd_expect, "exact expected avoider count over random hypergraphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="uniformity (default: pattern length)")
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=_rational_arg, metavar="P/Q")
    g.add_argument("--alpha-grid", type=_rational_grid_arg, metavar="P/Q,P/Q,...")

    p = cmd("expect-mc", _cmd_expect_mc, "Monte-Carlo estimators of the same expectation")
    p.add_argument("--estimator", choices=("sigma", "lambda"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="uniformity (default: pattern length)")
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--alpha", type=_rational_arg, required=True, metavar="P/Q",
                   help="edge probability in [0,1]; the lambda estimator needs "
                        "denominator <= 2^64")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = cmd("hypergraph", _cmd_hypergraph, "seeded random k-uniform hypergraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=_rational_arg, required=True, metavar="P/Q",
                   help="edge probability in [0,1], with denominator <= 2^64")
    p.add_argument("--seed", type=int, default=0)

    p = cmd("lambda-star", _cmd_lambda_star, "two-part hypergraph with only crossing edges")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("clique-cover", _cmd_clique_cover, "validate a clique cover of a hypergraph")
    p.add_argument("--lambda-file", required=True, metavar="PATH")
    p.add_argument("--cliques-file", required=True, metavar="PATH",
                   help="JSON list of vertex lists")

    p = cmd("contract", _cmd_contract, "2-contraction or rational b-contraction")
    p.add_argument("--from-file", required=True, metavar="PATH", help="matrix text file")
    p.add_argument("--b", type=_rational_arg, metavar="P/Q",
                   help="contraction factor >= 1 (omit for the 2x2 block form)")
    p.add_argument("--out", metavar="PATH", help="also write the result as matrix text")

    p = cmd("preimage", _cmd_preimage, "count matrices 2-contracting to a target")
    p.add_argument("--from-file", required=True, metavar="PATH", help="matrix text file")

    p = cmd("extremal", _cmd_extremal, "diagonal-blocks construction with a given ones count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True, help="number of ones (n | a, a | n^2)")
    p.add_argument("--pi", type=_pattern_arg, metavar="PERM",
                   help="also count this pattern's copies and the reference bound")
    p.add_argument("--out", metavar="PATH", help="also write the matrix as text")

    p = cmd("min-copies", _cmd_min_copies, "exact minimum copies at a fixed ones count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=int, help="ones count")
    g.add_argument("--a-grid", type=_int_grid_arg, metavar="A,A,...")

    p = cmd("max-ones", _cmd_max_ones, "extremal function: most ones with zero copies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--mode", choices=("exhaustive", "search"), default="exhaustive",
                   help="both run one exact dynamic program over rows, its work "
                   "growing as 2^n per state (capped by --cost-ceiling); "
                   "exhaustive reports the optimum of least mask value (capped "
                   "by --matrix-cap), search the lex-greatest optimum in "
                   "row-major order (capped by --enum-cap)")

    p = cmd("sna", _cmd_sna, "block-permutation family: size, members, copy budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True, help="run length")
    p.add_argument("--pi", type=_pattern_arg, metavar="PERM",
                   help="verify the copy budget for this pattern (needs pi(1) > pi(k))")
    p.add_argument("--list", action="store_true", help="include all members")

    p = cmd("snm", _cmd_snm, "permutations with at most m pattern copies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")

    p = cmd("build-h", _cmd_build_h, "grid hypergraph of placed pattern copies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--lambda-file", metavar="PATH",
                   help="index hypergraph (JSON or text); default: complete")

    p = cmd("delta", _cmd_delta, "max edges of the grid hypergraph on a common ell-set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--lambda-file", metavar="PATH")
    p.add_argument("--ell", type=int, required=True)

    p = cmd("independents", _cmd_independents, "exact independent-set count in the grid hypergraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--lambda-file", metavar="PATH")
    p.add_argument("--size", type=int, required=True)

    p = cmd("sample-density", _cmd_sample_density, "random-submatrix density estimates")
    p.add_argument("--from-file", required=True, metavar="PATH", help="matrix text file")
    p.add_argument("--pi", type=_pattern_arg, required=True, metavar="PERM")
    p.add_argument("--r", type=int, required=True, help="submatrix side")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


# ------------------------------------------------------------------ run


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Permutation):
        return value.to_text()
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _write_manifest(path: str, args, argv: list[str], output: str, wall_ms: int) -> None:
    # Imported here: hashlib loads OpenSSL, about 3.5 MB of resident
    # memory that only a run writing a manifest needs.
    import hashlib

    skip = {"func", "manifest", "subcommand"}
    parameters = {
        key: _jsonable(value)
        for key, value in sorted(vars(args).items())
        if key not in skip
    }
    # Strip the manifest flag from the stored argv: replaying it should
    # reproduce stdout without clobbering the manifest itself.
    stored, skip = [], False
    for arg in argv:
        if not (skip or arg == "--manifest" or arg.startswith("--manifest=")):
            stored.append(arg)
        skip = arg == "--manifest" and not skip  # its value comes next
    manifest = {
        "subcommand": args.subcommand,
        "argv": stored,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_ms": wall_ms,
        "output_sha256": hashlib.sha256(output.encode("utf-8")).hexdigest(),
    }
    Path(path).write_text(_render_json(manifest))


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    # Each limit's flag has the name of its field.  Unset flags keep the
    # environment's value, read here so that a malformed one exits 2.
    limits = {f.name: v for f in dataclasses.fields(Limits)
              if (v := getattr(args, f.name)) is not None}
    try:
        with override_limits(**limits):
            result = args.func(args)
        if isinstance(result, tuple):
            report, rows, fields = result
        else:
            report, rows, fields = result, None, None
        if args.format == "csv":
            if rows is None:
                rows, fields = [report], sorted(report)
            output = _render_csv(rows, fields)
        else:
            output = _render_json(report)
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_ms = int((time.perf_counter() - started) * 1000)
    sys.stdout.write(output)
    sys.stdout.flush()
    if args.manifest:
        try:
            _write_manifest(args.manifest, args, list(argv), output, wall_ms)
        except OSError as exc:
            print(f"error: cannot write manifest: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
