"""The three workloads: their seeded inputs, job lists and checks.

A job is one call into permavoid (``cli.main`` with an argv, or a
library loop written as a research script would write it).  Every name
is looked up on its module at call time, so the tracer's patches are
seen.  A check compares the parsed outputs of one or more jobs against
``oracles``; its ``corrupt`` hook breaks one value of those outputs, and
the self-test expects the check to reject the result.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracles
from permavoid import cli, contraction, matrices


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    run: Callable[[], "tuple[int, object]"]  # (exit code, raw output)


@dataclass(frozen=True)
class Check:
    name: str
    jobs: tuple[str, ...]
    verify: Callable[[dict], "str | None"]  # parsed outputs -> fault or None
    corrupt: Callable[[dict], None]  # breaks one value, in place


def parse(raw):
    """CLI output is JSON text; library jobs return Python objects."""
    return json.loads(raw) if isinstance(raw, str) else raw


def _cli_job(name: str, kind: str, argv: list[str]) -> Job:
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return Job(name, kind, run)


def _write_hypergraph(path: Path, n: int, k: int, edges) -> str:
    """Write 0-based edges as the 1-based JSON form the CLI reads."""
    doc = {"n": n, "k": k, "edges": [[v + 1 for v in e] for e in sorted(edges)]}
    path.write_text(json.dumps(doc))
    return str(path)


def _within(estimate: Fraction, exact: Fraction, se: float) -> bool:
    return abs(float(estimate - exact)) <= 4 * se


def _fail_if(cond: bool, message: str) -> "str | None":
    return message if cond else None


def _bump(doc: dict, key: str) -> None:
    """Corrupt an integer field, kept as int or as a decimal string."""
    v = doc[key]
    doc[key] = str(int(v) + 1) if isinstance(v, str) else v + 1


# ------------------------------------------------------------------ sweep

SWEEP_N = 8  # S_8 histograms and expectations
AVOID_N = 9  # S_9 avoider passes
AVOID_PI = (0, 2, 1)  # 132, 0-based
NESTED_EDGES = (10, 21, 42)  # densities 1/8, 1/4, 1/2 of C(9,3) = 84
EXPECT_GRID = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
SNM_M = 1


def sweep(seed: int, tmp: Path) -> tuple[list[Job], list[Check]]:
    """Exhaustive S_n passes: the kernel layer does almost all the work.

    The random 3-graphs are nested: one seeded order of all C(9,3)
    triples, cut after 10, 21 and 42 edges.  A fixed edge count keeps
    the work of a pass from drifting with the seed.
    """
    rng = random.Random(seed)
    triples = list(combinations(range(AVOID_N), 3))
    ranked = rng.sample(triples, len(triples))
    jobs = [
        _cli_job("distribution-21", "distribution",
                 ["distribution", "--n", str(SWEEP_N), "--pi", "2,1"]),
        _cli_job("distribution-132", "distribution",
                 ["distribution", "--n", str(SWEEP_N), "--pi", "1,3,2"]),
        _cli_job("avoiders-complete", "avoiders",
                 ["avoiders", "--n", str(AVOID_N), "--pi", "1,3,2"]),
    ]
    for m in NESTED_EDGES:
        path = _write_hypergraph(tmp / f"lambda-{m}.json", AVOID_N, 3, ranked[:m])
        jobs.append(_cli_job(f"avoiders-{m}", "avoiders",
                             ["avoiders", "--n", str(AVOID_N), "--pi", "1,3,2",
                              "--lambda-file", path]))
    jobs += [
        _cli_job("expect-grid-21", "expect",
                 ["expect", "--n", str(SWEEP_N), "--pi", "2,1", "--alpha-grid",
                  ",".join(str(a) for a in EXPECT_GRID)]),
        _cli_job("snm-132", "snm",
                 ["snm", "--n", str(SWEEP_N), "--m", str(SNM_M), "--pi", "1,3,2"]),
    ]

    nfact = math.factorial(SWEEP_N)
    first_hit: dict = {}

    def avoiders_over_prefix(m: int) -> int:
        # One pass over S_9 serves all three graphs; run it once, lazily.
        if not first_hit:
            first_hit.update(oracles.first_hit_histogram(AVOID_N, AVOID_PI, ranked))
        return sum(w for t, w in first_hit.items() if t >= m)

    def hist(out, name):
        return {int(c): int(v) for c, v in out[name]["histogram"].items()}

    def check_mahonian(out):
        h = hist(out, "distribution-21")
        want = {c: v for c, v in enumerate(oracles.mahonian(SWEEP_N)) if v}
        if sum(h.values()) != nfact:
            return f"histogram sums to {sum(h.values())}, not {SWEEP_N}!"
        return _fail_if(h != want, "histogram of 21 is not the Mahonian row")

    def check_132(out):
        h = hist(out, "distribution-132")
        if sum(h.values()) != nfact:
            return f"histogram sums to {sum(h.values())}, not {SWEEP_N}!"
        if h.get(0) != oracles.catalan(SWEEP_N):
            return f"avoiders {h.get(0)} != Catalan({SWEEP_N})"
        # Bona: exactly one copy of 132 in C(2n-3, n-3) permutations.
        one = math.comb(2 * SWEEP_N - 3, SWEEP_N - 3)
        return _fail_if(h.get(1) != one, f"one-copy count {h.get(1)} != {one}")

    def check_complete(out):
        rep = out["avoiders-complete"]
        if rep["lambda_edges"] != len(triples):
            return f"complete 3-graph has {rep['lambda_edges']} edges"
        want = oracles.catalan(AVOID_N)
        return _fail_if(rep["count"] != want, f"count {rep['count']} != Catalan {want}")

    def check_random(out):
        counts = []
        for m in NESTED_EDGES:
            rep = out[f"avoiders-{m}"]
            want = avoiders_over_prefix(m)
            if rep["lambda_edges"] != m or rep["count"] != want:
                return f"{m} edges: {rep['lambda_edges']} edges, count {rep['count']} != {want}"
            counts.append(rep["count"])
        counts.append(out["avoiders-complete"]["count"])
        return _fail_if(counts != sorted(counts, reverse=True),
                        f"avoider counts rise along nested graphs: {counts}")

    def check_expect(out):
        cells = out["expect-grid-21"]["grid"]
        if [Fraction(c["alpha"]) for c in cells] != list(EXPECT_GRID):
            return "alpha grid differs from the one requested"
        for c in cells:
            want = oracles.q_factorial(SWEEP_N, 1 - Fraction(c["alpha"]))
            if Fraction(c["exact"]) != want:
                return f"alpha {c['alpha']}: {c['exact']} != q-factorial {want}"
        return None

    def check_snm(out):
        want = oracles.catalan(SWEEP_N) + math.comb(2 * SWEEP_N - 3, SWEEP_N - 3)
        got = out["snm-132"]["count"]
        return _fail_if(got != want, f"S_n,m count {got} != {want}")

    def corrupt_hist(name):
        def corrupt(out):
            h = out[name]["histogram"]
            h["0"] = str(int(h["0"]) + 1)
        return corrupt

    def corrupt_expect(out):
        out["expect-grid-21"]["grid"][-1]["exact"] += "1"

    checks = [
        Check("mahonian", ("distribution-21",), check_mahonian,
              corrupt_hist("distribution-21")),
        Check("catalan-bona", ("distribution-132",), check_132,
              corrupt_hist("distribution-132")),
        Check("complete-catalan", ("avoiders-complete",), check_complete,
              lambda out: _bump(out["avoiders-complete"], "count")),
        Check("random-lambda", tuple(f"avoiders-{m}" for m in NESTED_EDGES),
              check_random, lambda out: _bump(out["avoiders-21"], "count")),
        Check("q-factorial", ("expect-grid-21",), check_expect, corrupt_expect),
        Check("snm", ("snm-132",), check_snm, lambda out: _bump(out["snm-132"], "count")),
    ]
    return jobs, checks


# --------------------------------------------------------------- sampling

SIGMA_JOBS = (  # (name, n, pattern, 0-based pattern, alpha, samples)
    ("sigma-21-n6", 6, "2,1", (1, 0), Fraction(1, 3), 20000),
    ("sigma-21-n8", 8, "2,1", (1, 0), Fraction(1, 4), 20000),
    ("sigma-132-n6", 6, "1,3,2", (0, 2, 1), Fraction(1, 2), 20000),
    ("sigma-132-n7", 7, "1,3,2", (0, 2, 1), Fraction(1, 3), 20000),
)
LAMBDA_N, LAMBDA_ALPHA, LAMBDA_SAMPLES = 5, Fraction(1, 3), 2000
DENSITY_SIDE, DENSITY_ONES, DENSITY_R, DENSITY_TRIALS = 16, 96, 6, 6000
DENSITY_PI = (0, 2, 1)
HG_N, HG_K, HG_ALPHA = 40, 3, Fraction(1, 4)


def _seeded_grid(rng: random.Random, side: int, ones: int) -> list[list[int]]:
    cells = set(rng.sample(range(side * side), ones))
    return [[int(i * side + j in cells) for j in range(side)] for i in range(side)]


def sampling(seed: int, tmp: Path) -> tuple[list[Job], list[Check]]:
    """Monte-Carlo jobs: many tiny kernel calls inside RNG draws, object
    construction and Fraction sums.  Every job seed derives from the
    benchmark seed."""
    rng = random.Random(seed)
    jobs = []
    for name, n, pi, _, alpha, samples in SIGMA_JOBS:
        jobs.append(_cli_job(name, "expect-mc-sigma",
                             ["expect-mc", "--estimator", "sigma", "--n", str(n),
                              "--pi", pi, "--alpha", str(alpha), "--samples",
                              str(samples), "--seed", str(rng.randrange(2**31))]))
    jobs.append(_cli_job("lambda-21-n5", "expect-mc-lambda",
                         ["expect-mc", "--estimator", "lambda", "--n", str(LAMBDA_N),
                          "--k", "2", "--pi", "2,1", "--alpha", str(LAMBDA_ALPHA),
                          "--samples", str(LAMBDA_SAMPLES),
                          "--seed", str(rng.randrange(2**31))]))
    grid = _seeded_grid(rng, DENSITY_SIDE, DENSITY_ONES)
    mpath = tmp / "density.txt"
    mpath.write_text(f"{DENSITY_SIDE} {DENSITY_SIDE}\n"
                     + "\n".join("".join(map(str, row)) for row in grid) + "\n")
    jobs.append(_cli_job("sample-density", "sample-density",
                         ["sample-density", "--from-file", str(mpath), "--pi", "1,3,2",
                          "--r", str(DENSITY_R), "--trials", str(DENSITY_TRIALS),
                          "--seed", str(rng.randrange(2**31))]))
    jobs.append(_cli_job("hypergraph", "hypergraph",
                         ["hypergraph", "--n", str(HG_N), "--k", str(HG_K),
                          "--alpha", str(HG_ALPHA), "--seed", str(rng.randrange(2**31))]))

    def check_estimate(name, mean, var, samples):
        def verify(out):
            rep = out[name]
            se = math.sqrt(var / samples)
            if rep["samples"] != samples:
                return f"ran {rep['samples']} samples, not {samples}"
            if not _within(Fraction(rep["estimate"]), mean, se):
                return f"estimate {float(Fraction(rep['estimate'])):.6g} is over 4 SE from {float(mean):.6g}"
            ratio = rep["std_error"] / se if se else 1.0
            return _fail_if(not 0.5 <= ratio <= 2, f"reported SE is {ratio:.3g} x the exact one")
        return verify

    def corrupt_estimate(name):
        def corrupt(out):
            rep = out[name]
            rep["estimate"] = str(Fraction(rep["estimate"]) + 10 * Fraction(rep["std_error"]) + 1)
        return corrupt

    checks = []
    for name, n, _, pi0, alpha, samples in SIGMA_JOBS:
        if pi0 == (1, 0):
            hist = dict(enumerate(oracles.mahonian(n)))
        else:
            hist = oracles.copy_histogram(n, pi0)
        mean, var = oracles.sigma_estimator_moments(n, hist, alpha)
        if pi0 == (1, 0) and mean != oracles.q_factorial(n, 1 - alpha):
            raise RuntimeError("Mahonian moments disagree with the q-factorial")
        checks.append(Check(f"estimate-{name}", (name,),
                            check_estimate(name, mean, var, samples),
                            corrupt_estimate(name)))
    mean, var = oracles.lambda_estimator_moments(LAMBDA_N, LAMBDA_ALPHA)
    checks.append(Check("estimate-lambda", ("lambda-21-n5",),
                        check_estimate("lambda-21-n5", mean, var, LAMBDA_SAMPLES),
                        corrupt_estimate("lambda-21-n5")))

    cells = DENSITY_SIDE * DENSITY_SIDE
    pairs = math.comb(DENSITY_SIDE, 3) ** 2
    exact_one = Fraction(DENSITY_ONES, cells)
    exact_pi = Fraction(oracles.matrix_copies(grid, DENSITY_PI), pairs)

    def check_density(out):
        rep = out["sample-density"]
        if Fraction(rep["exact_one"]) != exact_one or Fraction(rep["exact_pi"]) != exact_pi:
            return f"exact densities {rep['exact_one']}, {rep['exact_pi']} != {exact_one}, {exact_pi}"
        for field, exact in (("one", exact_one), ("pi", exact_pi)):
            se = rep[f"{field}_se"]
            if not se > 0 or not _within(Fraction(rep[f"{field}_mean"]), exact, se):
                return f"{field} mean {rep[f'{field}_mean']} is over 4 SE ({se}) from {exact}"
        return None

    def corrupt_density(out):
        out["sample-density"]["pi_mean"] = str(Fraction(out["sample-density"]["pi_mean"]) * 2 + 1)

    candidates = math.comb(HG_N, HG_K)

    def check_hypergraph(out):
        rep = out["hypergraph"]
        edges = [tuple(e) for e in rep["edges"]]
        if (rep["n"], rep["k"]) != (HG_N, HG_K):
            return f"hypergraph is n={rep['n']}, k={rep['k']}"
        for e in edges:
            if len(e) != HG_K or list(e) != sorted(set(e)) or not 1 <= e[0] <= e[-1] <= HG_N:
                return f"edge {e} is not a sorted {HG_K}-set of 1..{HG_N}"
        if edges != sorted(set(edges)):
            return "edges are not sorted and distinct"
        mean = candidates * HG_ALPHA
        sd = math.sqrt(candidates * HG_ALPHA * (1 - HG_ALPHA))
        return _fail_if(abs(len(edges) - mean) > 4 * sd,
                        f"{len(edges)} edges is over 4 sigma from {float(mean)}")

    def corrupt_hypergraph(out):
        out["hypergraph"]["edges"].append(out["hypergraph"]["edges"][0])

    checks += [
        Check("density", ("sample-density",), check_density, corrupt_density),
        Check("hypergraph", ("hypergraph",), check_hypergraph, corrupt_hypergraph),
    ]
    return jobs, checks


# ----------------------------------------------------------------- matrix

SWEEP_SIDE, SWEEP_ONES, SWEEP_MATRICES = 8, 24, 1500
SWEEP_B = Fraction(3, 2)
SWEEP_PI = (1, 3, 2)
MAX_ONES = (("max-ones-123", 5, "1,2,3"), ("max-ones-321", 5, "3,2,1"),
            ("max-ones-12", 6, "1,2"))
MIN_N, MIN_GRID = 4, (5, 6, 7, 8, 9, 10)
SNA_N, SNA_A, SNA_PI = 10, 4, (2, 1, 0)
GRID_N, GRID_EDGES, GRID_ELL, GRID_SIZE = 4, 4, 2, 6


def _bits(grid) -> tuple[int, ...]:
    return tuple(sum(v << j for j, v in enumerate(row)) for row in grid)


def _grid(row_bits, side: int) -> list[list[int]]:
    return [[(b >> j) & 1 for j in range(side)] for b in row_bits]


def _lines_grid(lines) -> list[list[int]]:
    return [[int(ch) for ch in ln] for ln in lines]


def matrix(seed: int, tmp: Path) -> tuple[list[Job], list[Check]]:
    """Matrix kernels, contraction, the branch-and-bound and the grid
    hypergraph, with no S_n pass and no Fraction accumulation."""
    rng = random.Random(seed)
    grids = [_seeded_grid(rng, SWEEP_SIDE, SWEEP_ONES) for _ in range(SWEEP_MATRICES)]
    sources = [_bits(g) for g in grids]

    def contraction_sweep():
        out = []
        for bits in sources:
            m = matrices.BinaryMatrix(SWEEP_SIDE, SWEEP_SIDE, bits)
            c2 = contraction.contract2(m)
            cb2 = contraction.contract_b(m, 2)
            cb = contraction.contract_b(m, SWEEP_B)
            out.append({
                "c2": c2.row_bits, "cb2": cb2.row_bits, "cb": cb.row_bits,
                "copies": [matrices.count_matrix_copies(x, SWEEP_PI) for x in (m, c2, cb)],
                "preimages": contraction.preimage_count_contract2(c2),
            })
        return 0, out

    jobs = [Job("contraction-sweep", "contraction-sweep", contraction_sweep)]
    for name, n, pi in MAX_ONES:
        jobs.append(_cli_job(name, "max-ones",
                             ["max-ones", "--n", str(n), "--pi", pi, "--mode", "search"]))
    jobs.append(_cli_job("min-copies-12", "min-copies",
                         ["min-copies", "--n", str(MIN_N), "--pi", "1,2", "--a-grid",
                          ",".join(map(str, MIN_GRID))]))
    jobs.append(_cli_job("sna-321", "sna",
                         ["sna", "--n", str(SNA_N), "--a", str(SNA_A), "--pi", "3,2,1"]))
    lam = sorted(rng.sample(list(combinations(range(GRID_N), 2)), GRID_EDGES))
    lpath = _write_hypergraph(tmp / "grid-lambda.json", GRID_N, 2, lam)
    grid_args = ["--n", str(GRID_N), "--pi", "2,1", "--lambda-file", lpath]
    jobs += [
        _cli_job("build-h", "build-h", ["build-h"] + grid_args),
        _cli_job("delta", "delta", ["delta"] + grid_args + ["--ell", str(GRID_ELL)]),
        _cli_job("independents", "independents",
                 ["independents"] + grid_args + ["--size", str(GRID_SIZE)]),
    ]

    pi0 = tuple(v - 1 for v in SWEEP_PI)
    def halves(i):
        return i // 2

    thirds = oracles.ceil_groups(SWEEP_B)

    def check_contraction(out):
        recs = out["contraction-sweep"]
        if len(recs) != len(grids):
            return f"{len(recs)} records for {len(grids)} matrices"
        for t, (g, rec) in enumerate(zip(grids, recs)):
            c2 = _grid(rec["c2"], SWEEP_SIDE // 2)
            cb = _grid(rec["cb"], len(rec["cb"]))
            if tuple(rec["cb2"]) != tuple(rec["c2"]):
                return f"matrix {t}: contract_b(M, 2) != contract2(M)"
            if c2 != oracles.block_or(g, halves):
                return f"matrix {t}: contract2 is not the 2x2 block OR"
            if cb != oracles.block_or(g, thirds):
                return f"matrix {t}: contract_b(M, {SWEEP_B}) is not the group OR"
            full, small, mid = rec["copies"]
            if small > full or mid > full:
                return f"matrix {t}: contraction raised copies {rec['copies']}"
            if rec["preimages"] != 15 ** sum(map(sum, c2)):
                return f"matrix {t}: preimage count is not 15^ones"
            if t < 20 and rec["copies"] != [oracles.matrix_copies(x, pi0) for x in (g, c2, cb)]:
                return f"matrix {t}: copy counts {rec['copies']} differ from brute force"
        return None

    def corrupt_contraction(out):
        rec = out["contraction-sweep"][0]
        rec["cb"] = tuple(b ^ 1 for b in rec["cb"])

    def check_max_ones(name, n, pi):
        k = len(pi.split(","))

        def verify(out):
            rep = out[name]
            want = oracles.max_ones_monotone(n, k)
            w = _lines_grid(rep["witness"])
            p = tuple(int(v) - 1 for v in pi.split(","))
            if rep["max_ones"] != want:
                return f"max ones {rep['max_ones']} != (k-1)(2n-k+1) = {want}"
            if sum(map(sum, w)) != want or oracles.matrix_copies(w, p):
                return "witness does not hold that many ones with zero copies"
            return None
        return verify

    def corrupt_max_ones(name):
        return lambda out: _bump(out[name], "max_ones")

    def check_min_copies(out):
        cells = out["min-copies-12"]["grid"]
        if [c["a"] for c in cells] != list(MIN_GRID):
            return "a grid differs from the one requested"
        for c in cells:
            w = _lines_grid(c["witness"])
            if (c["min_copies"] == 0) != (c["a"] <= 2 * MIN_N - 1):
                return f"a={c['a']}: min copies {c['min_copies']} breaks the 2n-1 threshold"
            if sum(map(sum, w)) != c["a"] or oracles.matrix_copies(w, (0, 1)) != c["min_copies"]:
                return f"a={c['a']}: witness does not recount to {c['min_copies']}"
        return None

    def corrupt_min_copies(out):
        _bump(out["min-copies-12"]["grid"][-1], "min_copies")

    family_max = max(oracles.occurrences(s, SNA_PI) for s in oracles.block_family(SNA_N, SNA_A))
    family_size = sum(1 for _ in oracles.block_family(SNA_N, SNA_A))

    def check_sna(out):
        rep = out["sna-321"]
        budget = oracles.sna_budget(SNA_N, SNA_A, len(SNA_PI))
        if (rep["budget"], rep["size"], rep["max_observed"]) != (budget, family_size, family_max):
            return (f"budget/size/max {rep['budget']}/{rep['size']}/{rep['max_observed']}"
                    f" != {budget}/{family_size}/{family_max}")
        return _fail_if(not (rep["within_budget"] and family_max <= budget),
                        "family exceeds its copy budget")

    h_edges = oracles.grid_hypergraph(GRID_N, (1, 0), lam)
    cells = GRID_N * GRID_N

    def check_build_h(out):
        rep = out["build-h"]
        got = {tuple(e) for e in rep["edges"]}
        if rep["edge_count"] != len(lam) * math.comb(GRID_N, 2):
            return f"{rep['edge_count']} edges, not |E(lambda)| C(n,k)"
        return _fail_if(got != h_edges or len(rep["edges"]) != len(got),
                        "edges differ from the grid hypergraph built apart")

    def check_delta(out):
        want = oracles.max_codegree(cells, h_edges, GRID_ELL)
        got = out["delta"]["delta"]
        return _fail_if(got != want, f"delta {got} != naive {want}")

    def check_independents(out):
        want = oracles.independent_sets(cells, h_edges, GRID_SIZE)
        got = out["independents"]["count"]
        return _fail_if(got != want, f"{got} independent sets != naive {want}")

    checks = [Check("contraction", ("contraction-sweep",), check_contraction,
                    corrupt_contraction)]
    for name, n, pi in MAX_ONES:
        checks.append(Check(name, (name,), check_max_ones(name, n, pi), corrupt_max_ones(name)))
    checks += [
        Check("min-copies", ("min-copies-12",), check_min_copies, corrupt_min_copies),
        Check("sna", ("sna-321",), check_sna, lambda out: _bump(out["sna-321"], "max_observed")),
        Check("build-h", ("build-h",), check_build_h,
              lambda out: out["build-h"]["edges"].pop()),
        Check("delta", ("delta",), check_delta, lambda out: _bump(out["delta"], "delta")),
        Check("independents", ("independents",), check_independents,
              lambda out: _bump(out["independents"], "count")),
    ]
    return jobs, checks


JOB_KINDS = ("distribution", "avoiders", "expect", "snm",
             "expect-mc-sigma", "expect-mc-lambda", "sample-density", "hypergraph",
             "contraction-sweep", "max-ones", "min-copies", "sna", "build-h", "delta",
             "independents")
WORKLOADS = {"sweep": sweep, "sampling": sampling, "matrix": matrix}
