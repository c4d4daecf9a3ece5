"""The four benchmark workloads: solve, scan, requests and verify.

Each workload is a closed loop with one client: the harness asks for a round
of jobs, runs them one after another, and checks each output after timing it.
Inputs come only from the seed.  Every call into the package goes through a
module attribute looked up at call time, so the tracer's wrappers see it.

Why these four (the notes in NOTES.md give the layer predictions):

* solve    - the series/invariants solver on distinct knots with n = 2..41;
             no knot repeats, so only reuse inside one extraction can help.
* scan     - closed-form tables and scans only; the solver layers do no work,
             which makes it the bypass workload for every solver change.
* requests - in-process CLI calls a user waits on; popular knots repeat, so a
             process-level cache would show here and not in solve.
* verify   - fresh `verify --suite all` processes: the acceptance path and
             the only caller of suites, fit_ansatz and interpolate_poly.
"""

from __future__ import annotations

import io
import json
import random
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import NamedTuple

import torusvass as tv
import torusvass.cli

from checks import (RANKS, SLOTS_THROUGH, TREFOIL_BETA, TREFOIL_CLASS, SchemaChecker,
                    beta21, canonical_pairs, integrality_pairs,
                    noncoprime_pairs, rational, require, v3_anchor)
from tracer import SUITE_NAMES


class Job(NamedTuple):
    kind: str
    args: tuple
    weight: int = 1   # jobs this call counts for (knots visited, for scan)
    expect: int = 0   # expected exit code of a CLI call


class CliResult(NamedTuple):
    code: int
    out: str


def run_cli(argv) -> CliResult:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = torusvass.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue())


def _options(argv) -> dict:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _zipf(rng: random.Random, items: list):
    """Item k is drawn with weight 1/(k+1): the first few are popular."""
    return rng.choices(items, weights=[1 / (k + 1) for k in range(len(items))])[0]


class CliChecker:
    """Checks CLI answers; remembers a hash of each first answer so repeats
    can be compared without the harness growing by whole answers."""

    def __init__(self, schema: SchemaChecker):
        self.schema = schema
        self.first: dict = {}  # argv -> (length, hash) of its first answer
        self.jones: dict = {}  # (n, m) -> {"su_n": coeffs at N=2, "su2": coeffs at j=1}

    def check(self, argv: tuple, expect: int, result: CliResult) -> None:
        if expect != 0:
            require(result.code == expect,
                    f"{' '.join(argv)}: exit {result.code}, expected {expect}")
            require(result.out == "", "a rejected request wrote to stdout")
            return
        require(result.code == 0, f"{' '.join(argv)}: exit {result.code}")
        # the built-in 64-bit hash, not hashlib: importing hashlib loads
        # OpenSSL, which adds 3.7 MiB to the worker's peak_rss_mb
        digest = (len(result.out), hash(result.out))
        first = self.first.setdefault(argv, digest)
        require(first == digest, f"{' '.join(argv)}: differs from its first answer")
        opts = _options(argv)
        fmt = opts.get("--format", "json")
        doc = self.schema.parse(result.out) if fmt == "json" else None
        if doc is not None:
            require(doc["command"]["name"] == argv[0], "wrong command name")
        getattr(self, "_" + argv[0])(opts, fmt, doc, result.out)

    def _invariants(self, opts, fmt, doc, out) -> None:
        n, m = int(opts["--n"]), int(opts["--m"])
        order = int(opts.get("--order", 6))
        unknot = abs(n) == 1 or abs(m) == 1
        if fmt == "json":
            payload = doc["payload"]
            require(payload["knot"]["unknot"] == unknot, "unknot flag")
            tables = {name: {tuple(map(int, slot.split(","))): rational(value)
                             for slot, value in payload[name].items()}
                      for name in ("alpha_tilde", "alpha", "beta")}
            v3 = payload["scalars"].get("v3")
            v3 = None if v3 is None else rational(v3)
        elif fmt == "csv":
            lines = out.splitlines()
            require(lines[0] == "table,order,slot,value", "csv header")
            tables = {"alpha_tilde": {}, "alpha": {}, "beta": {}}
            v3 = None
            for line in lines[1:]:
                kind, i, j, value = line.split(",")
                if kind == "scalar":
                    if i == "v3":
                        v3 = Fraction(value)
                else:
                    tables[kind][(int(i), int(j))] = Fraction(value)
        else:
            lines = out.splitlines()
            require(lines[0].startswith(f"torus knot ({n}, {m})"), "table title")
            rows = lines[2:-1]
            tables = {"beta": {tuple(map(int, row.split()[0][1:-1].split(","))):
                               Fraction(row.split()[3]) for row in rows}}
            match = re.search(r"v3 = (\S+)$", lines[-1])
            v3 = None if match is None else Fraction(match.group(1))
        for name, table in tables.items():
            require(len(table) == SLOTS_THROUGH[order], f"{name}: {len(table)} slots")
        beta = tables["beta"]
        require(all(value.denominator == 1 for value in beta.values()),
                f"non-integral beta at coprime ({n}, {m})")
        if unknot:
            require(not any(beta.values()), "unknot with nonzero beta")
        if (n, m) in TREFOIL_CLASS:
            require(all(beta[slot] == value for slot, value in TREFOIL_BETA.items()
                        if slot[0] <= order), "trefoil beta vector")
        require((v3 is not None) == (min(abs(n), abs(m)) == 2), "v3 presence")
        if v3_anchor(n, m) is not None:
            require(v3 == v3_anchor(n, m), f"v3({n},{m}) = {v3}, expected p^3 - p")

    def _expand(self, opts, fmt, doc, out) -> None:
        order = int(opts["--order"])
        if fmt == "table":
            require("(1)*x^0" in out and out.endswith(f" + O(x^{order + 1})\n"),
                    "expand table")
            return
        if fmt == "json":
            coeffs = [rational(c) for c in doc["payload"]["coefficients"]]
        else:
            lines = out.splitlines()
            require(lines[0] == "degree,coefficient", "csv header")
            coeffs = [Fraction(line.split(",")[1]) for line in lines[1:]]
        require(len(coeffs) == order + 1, "coefficient count")
        require(coeffs[0] == 1, "normalized series must start at 1")
        family = opts["--family"]
        if (family, opts.get("--N"), opts.get("--j")) in (("su_n", "2", None),
                                                          ("su2", None, "1")):
            # HOMFLY at N = 2 is the Jones polynomial (Akutsu-Wadati at j = 1)
            seen = self.jones.setdefault((opts["--n"], opts["--m"]), {})
            seen[family] = coeffs
            if len(seen) == 2:
                depth = min(len(c) for c in seen.values())
                require(seen["su_n"][:depth] == seen["su2"][:depth],
                        "HOMFLY N=2 differs from Jones j=1")

    def _scan(self, opts, fmt, doc, out) -> None:
        predicate, bound = opts["--predicate"], int(opts["--max"])
        lines = out.splitlines()
        if predicate == "lissajous-obstructed":
            expected = [(n, m) for n, m in canonical_pairs(bound, False)
                        if beta21(n, m).numerator % 2 == 1]
            if fmt == "json":
                found = [(h["n"], h["m"]) for h in doc["payload"]["knots"]]
                require(all(rational(h["beta_2_1"]) == beta21(h["n"], h["m"])
                            for h in doc["payload"]["knots"]), "beta_2_1 values")
            else:
                require(lines[0] == "n,m,beta_2_1", "csv header")
                found = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
            require(found == expected, "obstructed knots are those with odd beta_2_1")
        elif predicate == "beta-curve":
            expected = canonical_pairs(bound, False)
            if fmt == "json":
                points = {(p["n"], p["m"]): (rational(p["beta_2_1"]), rational(p["beta_3_1"]))
                          for p in doc["payload"]["points"]}
            else:
                require(lines[0] == "n,m,beta_2_1,beta_3_1", "csv header")
                points = {(int(n), int(m)): (Fraction(b2), Fraction(b3))
                          for n, m, b2, b3 in (line.split(",") for line in lines[1:])}
            require(sorted(points) == sorted(expected), "beta-curve knots")
            require(all(b2 == beta21(n, m) for (n, m), (b2, _b3) in points.items()),
                    "beta_2_1 values")
            if bound >= 3:
                require(points[(3, 2)] == (1, 1), "trefoil (beta_2_1, beta_3_1) = (1, 1)")
        else:
            if fmt == "json":
                require(doc["payload"]["coprime_violations"] == [],
                        "non-integral beta on a coprime pair")
                witnesses = [(w["n"], w["m"], rational(w["value"]))
                             for w in doc["payload"]["noncoprime_witnesses"]]
            else:
                require(lines[0] == "n,m,slot,value", "csv header")
                witnesses = [(int(row[0]), int(row[1]), Fraction(row[-1]))
                             for row in (line.split(",") for line in lines[1:])]
            require(witnesses, "no non-coprime witness")
            require(all(gcd(n, abs(m)) != 1 and value.denominator != 1
                        for n, m, value in witnesses), "witness is coprime or integral")


class Workload:
    """Base: a seeded input stream cut into rounds of jobs."""

    name = ""
    traced = False  # set by the harness while a traced round runs
    clock = None    # the harness's HostClock, set before each round
    child_jobs = False  # whether each job is a child process that samples itself

    def __init__(self, seed: int, schema: SchemaChecker):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cli = CliChecker(schema)

    def warm_up(self) -> None:
        """One untimed job on an input the timed rounds never use."""

    def next_round(self) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, output) -> None:
        self.cli.check(job.args, job.expect, output)

    def peak_rss_kib(self) -> int:
        """Peak resident set of the process the jobs run in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

#: one round: (n, extraction, mirrored, jobs).  Eleven near-identical n = 6
#: jobs fill the middle ranks, so the median job is the same kind of job in
#: every run and a slow spell that hits a few jobs barely moves it.  The
#: strata from n = 20 up take about three quarters of a round; n = 41 is where
#: a dense Laurent engine is expected to lose to the series engine.
SOLVE_ROUND = (
    (2, "alpha", False, 1), (3, "alpha_tilde", True, 1), (4, "alpha", False, 1),
    (5, "alpha_tilde", False, 1), (6, "alpha_tilde", False, 11),
    (13, "alpha", True, 1), (20, "alpha_tilde", False, 1), (27, "alpha", False, 1),
    (34, "alpha_tilde", False, 1), (41, "alpha", False, 1),
)


class Solve(Workload):
    name = "solve"

    def __init__(self, seed, schema):
        super().__init__(seed, schema)
        self.free = {n: [] for n, *_ in SOLVE_ROUND}   # unused m per stratum
        self.scanned = {n: n for n, *_ in SOLVE_ROUND}  # m values offered so far

    def warm_up(self):
        table, _report = tv.extract_alpha_tilde((2, 3))
        beta = tv.beta_from_alpha_tilde(table).entries
        require(all(beta[slot] == value for slot, value in TREFOIL_BETA.items()),
                "trefoil beta vector from the solver")

    def _next_m(self, n: int) -> int:
        # |m| from a window of 8 just above n, widened only once it is used
        # up, so the cost of a stratum stays steady across seeds
        while not self.free[n]:
            lo = self.scanned[n] + 1
            self.scanned[n] += 8
            self.free[n] = [m for m in range(lo, lo + 8)
                            if gcd(n, m) == 1 and (n, m) != (2, 3)]
        m = self.rng.choice(self.free[n])
        self.free[n].remove(m)
        return m

    def next_round(self):
        jobs = [Job(kind, (n, -self._next_m(n) if mirrored else self._next_m(n)))
                for n, kind, mirrored, count in SOLVE_ROUND for _ in range(count)]
        self.rng.shuffle(jobs)
        return jobs

    def run(self, job):
        extract = tv.extract_alpha_tilde if job.kind == "alpha_tilde" else tv.extract_alpha
        return extract(job.args)

    def check(self, job, output):
        table, report = output
        closed = (tv.closed_form_alpha_tilde if job.kind == "alpha_tilde"
                  else tv.closed_form_alpha)(job.args)
        require(table.entries == closed.entries, f"{job.args}: solve != closed form")
        require(report.rank == RANKS, f"{job.args}: ranks {report.rank}")
        require(report.all_good(), f"{job.args}: residuals or inconsistency")
        if job.kind == "alpha_tilde":
            beta = tv.beta_from_alpha_tilde(table).entries
            require(all(beta[slot].denominator == 1 for slot in TREFOIL_BETA),
                    f"{job.args}: non-integral beta from the solver")


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

class Scan(Workload):
    name = "scan"

    def warm_up(self):
        tv.distinguishing_check(6)
        run_cli(("scan", "--predicate", "beta-curve", "--max", "5"))

    def next_round(self):
        rng = self.rng
        distinguish, integral = rng.randint(36, 40), rng.randint(22, 26)
        relations, witness = rng.randint(10, 14), rng.randint(6, 10)
        cli_max, cli_integral = rng.randint(16, 20), rng.randint(6, 9)
        jobs = [
            Job("distinguishing", (distinguish,), len(canonical_pairs(distinguish, True))),
            Job("integrality", (integral,), integrality_pairs(integral)[0]),
            Job("relations", (relations,), len(canonical_pairs(relations, True))),
            Job("witnesses", (witness,), noncoprime_pairs(witness)),
        ]
        for predicate, bound, visited in (
                ("lissajous-obstructed", cli_max, len(canonical_pairs(cli_max, False))),
                ("beta-curve", cli_max, len(canonical_pairs(cli_max, False))),
                ("non-integer", cli_integral, integrality_pairs(cli_integral)[0])):
            for fmt in ("json", "csv"):
                argv = ("scan", "--predicate", predicate, "--max", str(bound),
                        "--format", fmt)
                jobs.append(Job("cli", argv, visited))
        rng.shuffle(jobs)
        return jobs

    def run(self, job):
        if job.kind == "distinguishing":
            return tv.distinguishing_check(*job.args)
        if job.kind == "integrality":
            return tv.integrality_scan(*job.args, include_noncoprime=True)
        if job.kind == "relations":
            return tv.dependency_relations_check(max_n=job.args[0])
        if job.kind == "witnesses":
            return tv.noncoprime_witnesses(*job.args)
        return run_cli(job.args)

    def check(self, job, output):
        if job.kind == "cli":
            return super().check(job, output)
        if job.kind == "witnesses":
            require(sorted(output) == [2, 3, 4, 5, 6], f"witness orders {sorted(output)}")
            require(output[2] == ((2, 2), (2, 1), Fraction(3, 8)),
                    "beta_{2,1}(2,2) = 3/8 is the first order-2 witness")
            require(all(gcd(*pair) != 1 and value.denominator != 1
                        for pair, _slot, value in output.values()), "witness values")
            return
        require(output.passed, f"{job.kind}({job.args[0]}): {output.violations[:3]}")
        if job.kind == "integrality":
            require(output.checked == 12 * integrality_pairs(job.args[0])[1],
                    "integrality: coprime pairs checked")
            require(output.notes and all(gcd(pair[0], abs(pair[1])) != 1
                                         and value.denominator != 1
                                         for pair, _slot, value in output.notes),
                    "integrality: non-coprime notes")
        else:
            per_knot = 6 if job.kind == "relations" else 1
            require(output.checked == per_knot * job.weight,
                    f"{job.kind}: {output.checked} checks for {job.weight} knots")


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------

#: requests of each kind in one round of 50, shuffled: every round has the
#: same mix, so its cost varies only with the knots and options drawn
REQUEST_ROUND = {"invariants": 35, "expand": 10, "scan": 4, "invalid": 1}


class Requests(Workload):
    name = "requests"

    def __init__(self, seed, schema):
        super().__init__(seed, schema)
        rng = self.rng
        # popular knots first: the trefoil, then unknots and mirrors at random
        self.knots = [(2, 3)]
        while len(self.knots) < 48:
            if rng.random() < 0.1:
                pair = (rng.choice((1, -1)), rng.randint(-50, 50) or 1)
            else:
                pair = (rng.randint(-50, 50), rng.randint(-50, 50))
            if 0 not in pair and gcd(*pair) == 1 and pair not in self.knots:
                self.knots.append(pair)
        # expand cost grows with n and |m|, so n is drawn uniformly and m
        # from the three smallest |m| coprime to n; the seed sets only their
        # signs and popularity order, so the cost mix is alike for every seed
        self.small = {}
        for n in range(2, 10):
            pool = [m for m in range(2, 20) if gcd(n, m) == 1][:3]
            rng.shuffle(pool)
            self.small[n] = [rng.choice((1, -1)) * m for m in pool]

    def warm_up(self):
        for argv in (("invariants", "--n", "97", "--m", "98"),
                     ("expand", "--family", "su_n", "--N", "2", "--n", "2", "--m", "97",
                      "--order", "6")):
            self.cli.check(argv, 0, run_cli(argv))

    def _invariants(self, rng):
        n, m = _zipf(rng, self.knots)
        argv = ["invariants", "--n", str(n), "--m", str(m)]
        if rng.random() < 0.2:
            argv += ["--order", str(rng.randint(0, 5))]
        argv += ["--format", rng.choices(("json", "csv", "table"), (5, 3, 2))[0]]
        return Job("invariants", tuple(argv))

    def _expand(self, rng):
        n = rng.randint(2, 9)
        m = _zipf(rng, self.small[n])
        family = rng.choice(("su_n", "so_n", "su2", "product"))
        params = {"su_n": ["--N", str(rng.randint(2, 6))],
                  "so_n": ["--N", str(max(5, n + 2) + rng.randint(0, 3))],
                  "su2": ["--j", str(rng.randint(1, 4))],
                  "product": ["--N", str(rng.randint(2, 4)), "--j", str(rng.randint(1, 3))]}
        argv = (["expand", "--family", family] + params[family]
                + ["--n", str(n), "--m", str(m), "--order", str(rng.randint(6, 12)),
                   "--format", rng.choices(("json", "csv", "table"), (6, 3, 1))[0]])
        return Job("expand", tuple(argv))

    def _scan(self, rng):
        predicate, low, high = rng.choice((("lissajous-obstructed", 6, 12),
                                           ("beta-curve", 6, 12), ("non-integer", 3, 6)))
        return Job("scan", ("scan", "--predicate", predicate, "--max",
                           str(rng.randint(low, high)), "--format", rng.choice(("json", "csv"))))

    def _invalid(self, rng):
        a, b = rng.randint(1, 20), rng.randint(1, 20)
        n, m = _zipf(rng, self.knots)
        argv, code = rng.choice((
            (("invariants", "--n", str(2 * a), "--m", str(-2 * b)), 2),
            (("invariants", "--n", "0", "--m", str(b)), 2),
            (("expand", "--family", "su2", "--j", "1", "--n", str(3 * a),
              "--m", str(3 * b)), 2),
            (("invariants", "--n", str(n), "--m", str(m), "--format", "xml"), 2),
            (("invariants", "--n", str(n), "--m", str(m), "--order", str(6 + a)), 3),
            (("expand", "--family", "su_n", "--n", "2", "--m", str(2 * b + 1)), 3),
            (("expand", "--family", "so_n", "--N", "6", "--n", "7", "--m", "9"), 3),
            (("scan", "--predicate", "knotted", "--max", str(a)), 3),
        ))
        return Job("invalid", argv, expect=code)

    def next_round(self):
        rng = self.rng
        kinds = [kind for kind, count in REQUEST_ROUND.items() for _ in range(count)]
        rng.shuffle(kinds)
        return [getattr(self, "_" + kind)(rng) for kind in kinds]

    def run(self, job):
        return run_cli(job.args)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

_TIMING_DETAIL = re.compile(r"^[0-9]+\.[0-9]+s$")


def _without_timings(node):
    """The verify document minus elapsed_seconds and timing-only details."""
    if isinstance(node, dict):
        return {key: _without_timings(value) for key, value in node.items()
                if key != "elapsed_seconds"
                and not (key == "detail" and _TIMING_DETAIL.match(str(value)))}
    if isinstance(node, list):
        return [_without_timings(value) for value in node]
    return node


HERE = Path(__file__).resolve().parent


class Verify(Workload):
    """One job is one `verify --suite all`: a fresh process, except the traced
    job of a traced run, which runs in the (fresh) worker under the tracer.

    The seed changes nothing here: the acceptance path has one fixed input.
    """

    name = "verify"
    ARGV = ("verify", "--suite", "all")
    child_jobs = True

    def __init__(self, seed, schema):
        super().__init__(seed, schema)
        self.payload_mismatch = 0
        self.first_doc = self.first_out = None
        self.job_rss_kib = 0  # largest ru_maxrss of a verify job's own process

    def _fresh_process(self, argv) -> tuple[CliResult, int, dict]:
        """Run the CLI in a fresh process; return its result, its ru_maxrss
        and the host reference samples it took.

        The process is started through spawn.py, so that its ru_maxrss is
        its own peak and not the worker's, and runs the CLI through
        cli_job.py, which samples the host reference inside it.  run.py stops
        the whole session on its deadline.
        """
        done = subprocess.run([sys.executable, "-S", str(HERE / "spawn.py"), sys.executable,
                               str(HERE / "cli_job.py"), *argv],
                              capture_output=True, text=True, check=False)
        *_, samples, report = [""] * 2 + done.stderr.splitlines()
        require(report.startswith("maxrss_kib="), f"spawn.py reported {report!r}")
        return (CliResult(done.returncode, done.stdout), int(report.partition("=")[2]),
                json.loads(samples))

    def warm_up(self):
        argv = ("invariants", "--n", "97", "--m", "98")
        self.cli.check(argv, 0, self._fresh_process(argv)[0])

    def next_round(self):
        return [Job("verify", self.ARGV)]

    def run(self, job):
        if self.traced:
            return run_cli(job.args)
        result, rss_kib, samples = self._fresh_process(job.args)
        self.job_rss_kib = max(self.job_rss_kib, rss_kib)
        self.clock.merge(samples)
        return result

    def peak_rss_kib(self):
        """Peak resident set of the verify job processes, the warm-up and the
        harness process left out."""
        return self.job_rss_kib

    def check(self, job, output):
        require(output.code == 0, f"verify exit {output.code}")
        doc = self.cli.schema.parse(output.out)
        suites = doc["payload"]["suites"]
        require(tuple(s["suite"] for s in suites) == SUITE_NAMES, "suite list")
        require(all(s["passed"] and s["checks"] and all(c["passed"] for c in s["checks"])
                    for s in suites), "a verification check failed")
        require(doc["payload"]["violations"] == [], "violations reported")
        # the payload embeds timings, so raw bytes differ between runs: count
        # that defect, and require equality of everything else
        stripped = _without_timings(doc)
        if self.first_doc is None:
            self.first_doc, self.first_out = stripped, output.out
            return
        require(stripped == self.first_doc, "verify output differs beyond its timings")
        if output.out != self.first_out:
            self.payload_mismatch += 1


WORKLOADS = {cls.name: cls for cls in (Solve, Scan, Requests, Verify)}
