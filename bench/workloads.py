"""The benchmark workloads: their timed job passes, replays and checks.

A pass is one run through a workload's job sequence. Each job's timed body
produces outputs; its check runs afterwards, untimed, and a job that raises
or fails a check counts as failed while the run goes on. The same pass code
runs with NULL_TRACER for timing and with a Tracer for the per-layer run.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from inputs import MultinomialSpec, PoissonSpec
from spans import NULL_TRACER

from mixexact import cli, lattice, oracle, posterior
from mixexact.families import PoissonGamma

# lattice-bound: the build does most of the work and no grid runs
FIT = PoissonSpec(n=16, weight=0.5, rate1=1.0, rate2=6.0, k=3,
                  target_entries=50_000, target_successors=370_000)
# start-up-bound: five fresh CLI processes on small multinomial inputs
CLI = MultinomialSpec(n=24, total=6, pvals=((0.6, 0.3, 0.1), (0.1, 0.3, 0.6)), weight=0.5,
                      k=2, oracle_rows=12, target_entries=6_800, target_successors=70_000)

TOY = {
    "fit-poisson-k3": PoissonSpec(9, 0.5, 1.0, 6.0, 3, 3_100, 9_000),
    "cli-cold": MultinomialSpec(10, 3, CLI.pvals, 0.5, 2, 6, 184, 750),
}

WEIGHT_TOLERANCE = 1e-12
DENSITY_TOLERANCE = 1e-4
CHILD_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Ledger:
    """Outcomes of one run: seconds per job name, attempts and failures."""

    times: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, name: str, body, check=None):
        """Time body(), then check its result untimed; None when either fails."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = body()
            elapsed = time.perf_counter() - start
            if check is not None:
                check(result)
        except Exception as exc:  # a failed job is counted and the run goes on
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        self.times.setdefault(name, []).append(elapsed)
        return result

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{name}: {message}")

    def skip(self, names: list[str], reason: str) -> None:
        for name in names:
            self.attempted += 1
            self.fail(name, reason)


def check_weights(wp: posterior.WeightedPosterior) -> None:
    require(bool(np.all(np.isfinite(wp.weights))), "non-finite weight")
    total = math.fsum(wp.weights.tolist())
    require(abs(total - 1.0) <= WEIGHT_TOLERANCE, f"weights sum to {total!r}")
    require(math.isfinite(wp.log_evidence), f"log evidence {wp.log_evidence!r}")


def check_density(grid: np.ndarray, density: np.ndarray, what: str) -> None:
    require(bool(np.all(np.isfinite(density))), f"{what}: non-finite density")
    mass = float(np.trapezoid(density, grid))
    require(abs(mass - 1.0) <= DENSITY_TOLERANCE, f"{what}: integrates to {mass!r}")


def check_conservation(lat: lattice.StatLattice, entries: int) -> None:
    total = lat.total_count()
    require(total == lat.k**lat.n, f"sum of multiplicities {total} != {lat.k}^{lat.n}")
    require(lat.distinct_count() == entries,
            f"{lat.distinct_count()} entries, independent count says {entries}")


def parse_csv_grid(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.splitlines()
    require(lines[0] == "param,density", f"bad CSV header {lines[0]!r}")
    values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return values[:, 0], values[:, 1]


class Stable:
    """Requires that every output under one name is byte-identical to the first."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def check(self, name: str, text: str) -> None:
        kept = self.first.setdefault(name, text)
        require(kept == text, f"{name} differs from the run's first {name}")


def member_counts(wp: posterior.WeightedPosterior, j: int, category: int | None) -> dict:
    """Members and distinct members of the component-j and weight-j marginals."""
    keys = np.asarray(wp.keys, dtype=np.int64).reshape(len(wp.keys), wp.k, wp.slot_width)
    counts = keys[:, j, 0]
    if category is None:
        params = keys[:, j, :2]  # Gamma(a + S_j, b + n_j)
    else:
        params = np.stack([keys[:, j, 1 + category], keys[:, j, 1:].sum(axis=1)], axis=1)
    return {
        "members": len(wp.keys),
        "distinct_members": int(np.unique(params, axis=0).shape[0]),
        "weight_distinct_members": int(np.unique(counts).size),
    }


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def fit(tr, data: list, k: int, prior, family: str | None = None, summary: bool = True):
    """data -> lattice -> normalized posterior (-> summary text)."""
    with tr.span("lattice.build") as sp:
        rss0 = current_rss_mb()
        lat = lattice.build(data, k, family)
        sp["rss_rise_mb"] = current_rss_mb() - rss0
    with tr.span("posterior.normalize"):
        wp = posterior.normalize(lat, prior)
    if not summary:
        return lat, wp, None
    with tr.span("posterior.summarize"):
        text = posterior.summarize(wp).to_text()
    return lat, wp, text


def marginal(tr, kind: str, wp, category: int | None = None) -> posterior.DensityGrid:
    """Default-grid marginal of component 1 ("component") or of p_1 ("weight")."""
    if kind == "component":
        with tr.span("posterior.marginal_component"):
            return posterior.marginal_component_density(wp, 0, None, category=category)
    with tr.span("posterior.marginal_weight"):
        return posterior.marginal_weight_density(wp, 0)


def roundtrip(tr, lat) -> tuple[str, lattice.StatLattice]:
    with tr.span("lattice.dump") as sp:
        text = lattice.dump(lat)
        sp["bytes"] = len(text.encode())
    with tr.span("lattice.load"):
        loaded = lattice.load(text)
    return text, loaded


def layer_extras(tr, wp) -> None:
    """The three summary ingredients, each timed as a separate call."""
    with tr.span("posterior.mass_concentration"):
        posterior.mass_concentration(wp, 0.99)
    with tr.span("posterior.expected_weights"):
        posterior.expected_weights(wp)
    with tr.span("posterior.expected_component_means"):
        posterior.expected_component_means(wp)


def fold_growth(tr, data: list, k: int, family: str | None = None):
    """Fold init and extend over the data, recording entries after each step."""
    with tr.span("lattice.fold"):
        with tr.span("lattice.init"):
            lat = lattice.init(data[0], k, family)
        rows = [{"n": 1, "entries": lat.distinct_count(), "collisions": 0}]
        for obs in data[1:]:
            previous = lat.distinct_count()
            with tr.span("lattice.extend"):
                lat = lattice.extend(lat, obs)
            rows.append({"n": lat.n, "entries": lat.distinct_count(),
                         "collisions": k * previous - lat.distinct_count()})
    return lat, rows


def check_fold(folded, built, rows: list[dict], sizes: list[int]) -> None:
    require(dict(folded.entries) == dict(built.entries), "fold and build disagree")
    require([r["entries"] for r in rows] == sizes, "fold growth differs from the independent count")


def growth_layer(rows: list[dict], k: int) -> dict:
    succ = k * sum(r["entries"] for r in rows[:-1])
    collisions = sum(r["collisions"] for r in rows[1:])
    return {
        "lattice.entries": rows[-1]["entries"],
        "lattice.successors": succ,
        "lattice.collision_ratio": collisions / succ if succ else 0.0,
    }


class PoissonWorkload:
    """fit-poisson-k3: a fit, then a dump/load round trip of its lattice."""

    def __init__(self, spec: PoissonSpec, choice: dict):
        self.spec = spec
        self.subseed = choice["subseed"]
        self.data = inputs.draw(spec, self.subseed)
        self.entries = choice["entries"]
        self.sizes = choice["sizes"]
        self.prior = posterior.MixturePrior((1.0,) * spec.k, (PoissonGamma(1.0, 1.0),) * spec.k)
        self.stable = Stable()
        self.jobs = ["fit", "roundtrip"]
        self.last = None

    def check_fit(self, out) -> None:
        lat, wp, text = out
        check_conservation(lat, self.entries)
        check_weights(wp)
        self.stable.check("summary", text)

    def check_roundtrip(self, out) -> None:
        text, loaded = out
        require(lattice.dump(loaded) == text, "dump(load(text)) != text")
        self.stable.check("dump", text)

    def run_pass(self, ledger: Ledger, tr=NULL_TRACER) -> float | None:
        """One pass of the job sequence; returns its timed seconds, None on failure."""
        before = {name: len(ledger.times.get(name, ())) for name in self.jobs}
        with tr.span("pass"):
            with tr.span("job.fit"):
                out = ledger.run("fit", lambda: fit(tr, self.data, self.spec.k, self.prior),
                                 self.check_fit)
            if out is None:
                ledger.skip(self.jobs[1:], "skipped: the fit failed")
                return None
            lat, wp, _ = out
            with tr.span("job.roundtrip"):
                ledger.run("roundtrip", lambda: roundtrip(tr, lat), self.check_roundtrip)
        self.last = (lat, wp)
        new = [ledger.times.get(name, [])[before[name]:] for name in self.jobs]
        return sum(t[0] for t in new) if all(new) else None

    def fit_times(self, ledger: Ledger) -> list[float]:
        return ledger.times.get("fit", [])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_timings(self, ledger: Ledger) -> dict[str, list[float]]:
        """Job timings the report prints besides the bounded end-to-end metrics."""
        return {"roundtrip_s": ledger.times.get("roundtrip", [])}

    def properties(self) -> dict:
        return {"family": "poisson", "n": self.spec.n, "k": self.spec.k, "v": None,
                "entries": self.entries, "successors": inputs.successors(self.sizes, self.spec.k),
                "data_sum": sum(self.data)}

    def traced_extras(self, ledger: Ledger, tr) -> dict:
        """Per-layer calls outside the timed job sequence, on this workload's data."""
        lat, wp = self.last
        layer_extras(tr, wp)
        # the grids no timed job runs, at this workload's size
        for kind in ("component", "weight"):
            ledger.run(f"grid {kind}", lambda kind=kind: marginal(tr, kind, wp),
                       lambda g: check_density(g.grid, g.density, g.param))
        grid = np.linspace(0.01, 1.2 * max(max(self.data), 1), posterior.DEFAULT_GRID_POINTS)
        with tr.span("posterior.marginal_fixed_grid"):
            fixed = posterior.marginal_component_density(wp, 0, grid)
        ledger.run("fixed-grid check", lambda: fixed.density,
                   lambda d: require(bool(np.all(np.isfinite(d))), "non-finite density"))
        for _ in range(5):
            with tr.span("datasets.sample"):
                inputs.draw(self.spec, self.subseed)
        folded, rows = fold_growth(tr, self.data, self.spec.k)
        ledger.run("fold check", lambda: folded, lambda f: check_fold(f, lat, rows, self.sizes))
        counts = member_counts(wp, 0, None)
        return {"growth": rows, "members": counts, **growth_layer(rows, self.spec.k)}


# -- cli-cold ---------------------------------------------------------------

# artifact file each job writes with --out
ARTIFACTS = {"cli:enumerate": "lattice.txt", "cli:posterior": "summary.txt",
             "cli:marginal": "q11.csv"}
EVIDENCE_ARGS = ["--data", "worked.txt", "--family", "poisson", "--k", "2",
                 "--alpha", "1,1", "--gamma", "1,1;1,10"]


# Flat Dirichlet(1, ..., 1) component priors. Under the CLI's default of 1/2
# per category, members with a zero category count have densities that
# diverge at q = 0, and the default q grid then integrates to 5-20, not 1.
FLAT_BETA = 1.0


def cli_jobs(k: int, v: int) -> dict[str, list[str]]:
    """CLI argument lists of the five cli-cold jobs, in pass order."""
    beta = ";".join([",".join([f"{FLAT_BETA:g}"] * v)] * k)
    multi = ["--family", "multinomial", "--k", str(k), "--beta", beta]
    return {
        "cli:evidence": ["evidence", *EVIDENCE_ARGS],
        "cli:enumerate": ["enumerate", "--data", "multi.csv", *multi, "--out", "lattice.txt"],
        "cli:posterior": ["posterior", "--data", "multi.csv", *multi, "--out", "summary.txt"],
        "cli:marginal": ["marginal", "--data", "multi.csv", *multi, "--param", "q1,1",
                         "--out", "q11.csv"],
        "cli:oracle": ["oracle", "--data", "multi_head.csv", *multi, "--compare"],
    }


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, str, float]:
    """Run a child to completion: (exit code, stdout, stderr, its peak RSS in MB)."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, unlike Popen.wait, also returns the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), usage.ru_maxrss / 1024.0)


class CliWorkload:
    """cli-cold: fresh `python -m mixexact.cli` processes, one after another."""

    def __init__(self, spec: MultinomialSpec, choice: dict, workdir: Path, env: dict):
        self.spec = spec
        self.entries = choice["entries"]
        self.sizes = choice["sizes"]
        self.workdir = workdir
        self.env = env
        self.argv = cli_jobs(spec.k, len(spec.pvals[0]))
        self.jobs = list(self.argv)
        self.child_rss: list[float] = []
        self.stable = Stable()
        self.reference: dict[str, str] = {}
        self.last = None

    # in-process replay: each CLI job's steps through the same public functions

    def multinomial_prior(self, command: str, data: list):
        flat = {"concentration": [FLAT_BETA] * len(self.spec.pvals[0])}
        config = cli.RunConfig(command=command, family="multinomial", k=self.spec.k,
                               components=[flat] * self.spec.k)
        return cli.build_prior(config, data)

    def ingest(self, tr, name: str, family: str) -> list:
        with tr.span("cli.ingest"):
            data, _ = cli.ingest(str(self.workdir / name), family)
        return data

    def replay(self, tr, job: str):
        if job == "cli:evidence":
            data = self.ingest(tr, "worked.txt", "poisson")
            config = cli.RunConfig(command="evidence", family="poisson", k=2, alpha=[1.0, 1.0],
                                   components=[{"shape": 1.0, "rate": 1.0},
                                               {"shape": 1.0, "rate": 10.0}])
            _, wp, _ = fit(tr, data, 2, cli.build_prior(config, data), "poisson", summary=False)
            return repr(wp.log_evidence) + "\n"
        if job == "cli:oracle":
            data = self.ingest(tr, "multi_head.csv", "multinomial")
            prior = self.multinomial_prior("oracle", data)
            with tr.span("oracle.posterior") as sp:
                result = oracle.oracle_posterior(data, prior)
                result.summary().to_text()
                sp["allocations"] = self.spec.k ** len(data)
            with tr.span("lattice.build"):
                lat = lattice.build(data, self.spec.k, "multinomial")
            with tr.span("posterior.normalize"):
                wp = posterior.normalize(lat, prior)
            with tr.span("oracle.compare"):
                _, _, verdict = oracle.compare_report(wp, result)
            return verdict + "\n"
        data = self.ingest(tr, "multi.csv", "multinomial")
        if job == "cli:enumerate":
            with tr.span("lattice.build"):
                lat = lattice.build(data, self.spec.k, "multinomial")
            with tr.span("lattice.dump") as sp:
                text = lattice.dump(lat)
                sp["bytes"] = len(text.encode())
            return text
        prior = self.multinomial_prior(job[4:], data)
        lat, wp, text = fit(tr, data, self.spec.k, prior, "multinomial",
                            summary=job == "cli:posterior")
        self.last = (lat, wp)
        if job == "cli:posterior":
            return text
        return marginal(tr, "component", wp, category=0).to_csv()

    def check_output(self, job: str, text: str) -> None:
        """Checks shared by CLI artifacts and in-process replay outputs."""
        if job == "cli:evidence":
            require(text.splitlines()[-1] == inputs.WORKED_EVIDENCE,
                    f"worked example prints {text.splitlines()[-1]!r}")
        elif job == "cli:enumerate":
            loaded = lattice.load(text)
            require(lattice.dump(loaded) == text, "dump(load(text)) != text")
            check_conservation(loaded, self.entries)
        elif job == "cli:posterior":
            self.stable.check("summary", text)
        elif job == "cli:marginal":
            check_density(*parse_csv_grid(text), "q1,1")
            self.stable.check("q11", text)
        elif job == "cli:oracle":
            require(text.splitlines()[-1].startswith("MATCH"), f"oracle: {text.splitlines()[-1]!r}")
        if job in self.reference:
            require(text == self.reference[job], f"{job} output differs from the library's")

    def prepare_reference(self, ledger: Ledger) -> None:
        """Library outputs that CLI artifacts must equal byte for byte.

        The q1,1 grid is left out: it would double the run's set-up time, and
        its CSV is still checked for mass and for equality across passes.
        """
        for job in ("cli:enumerate", "cli:posterior"):
            text = ledger.run(f"reference {job}", lambda job=job: self.replay(NULL_TRACER, job),
                              lambda t, job=job: self.check_output(job, t))
            if text is not None:
                self.reference[job] = text

    def spawn(self, job: str) -> str:
        artifact = ARTIFACTS.get(job)
        if artifact:
            (self.workdir / artifact).unlink(missing_ok=True)
        code, out, err, rss = run_child([sys.executable, "-m", "mixexact.cli", *self.argv[job]],
                                        self.workdir, self.env)
        self.child_rss.append(rss)
        require(code == 0, f"exit {code}: {err.strip()[-300:]}")
        if job == "cli:enumerate":
            last = out.splitlines()[-1]
            total = self.spec.k ** self.spec.n
            require(last == f"distinct={self.entries} total={total} expected={total} OK",
                    f"enumerate prints {last!r}")
        if artifact:
            return (self.workdir / artifact).read_text(encoding="utf-8")
        return out

    def run_pass(self, ledger: Ledger, tr=NULL_TRACER, in_process: bool = False) -> float | None:
        total = 0.0
        ok = True
        with tr.span("pass"):
            for job in self.jobs:
                body = (lambda job=job: self.replay(tr, job)) if in_process else (
                    lambda job=job: self.spawn(job))
                with tr.span("job." + job.replace(":", "_")):
                    n = len(ledger.times.get(job, ()))
                    out = ledger.run(job, body, lambda t, job=job: self.check_output(job, t))
                if out is None:
                    ok = False
                else:
                    total += ledger.times[job][n]
        return total if ok else None

    def fit_times(self, ledger: Ledger) -> list[float]:
        return ledger.times.get("cli:posterior", [])

    def peak_rss_mb(self) -> float:
        return max(self.child_rss) if self.child_rss else float("nan")

    def extra_timings(self, ledger: Ledger) -> dict[str, list[float]]:
        return {"cold_start_s": ledger.times.get("cli:evidence", []),
                "cli_s": [t for job in self.jobs for t in ledger.times.get(job, [])]}

    def properties(self) -> dict:
        return {"family": "multinomial", "n": self.spec.n, "k": self.spec.k,
                "v": len(self.spec.pvals[0]), "row_total": self.spec.total,
                "entries": self.entries, "successors": inputs.successors(self.sizes, self.spec.k),
                "oracle_rows": self.spec.oracle_rows}

    def traced_extras(self, ledger: Ledger, tr) -> dict:
        lat, wp = self.last
        layer_extras(tr, wp)
        # the CLI only dumps; the artifact is loaded back by the harness check
        text, loaded = roundtrip(tr, lat)
        ledger.run("roundtrip check", lambda: loaded,
                   lambda x: require(lattice.dump(x) == text, "dump(load(text)) != text"))
        data, _ = cli.ingest(str(self.workdir / "multi.csv"), "multinomial")
        folded, rows = fold_growth(tr, data, self.spec.k, "multinomial")
        ledger.run("fold check", lambda: folded, lambda f: check_fold(f, lat, rows, self.sizes))
        counts = member_counts(wp, 0, 0)
        return {"growth": rows, "members": counts, **growth_layer(rows, self.spec.k)}


def probe_worked_example(tr) -> None:
    """Weight grid and fixed lambda grid on the worked example, for coverage."""
    data = list(inputs.WORKED_EXAMPLE)
    prior = posterior.MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0)))
    _, wp, _ = fit(tr, data, 2, prior)
    with tr.span("posterior.marginal_weight"):
        posterior.marginal_weight_density(wp, 0)
    with tr.span("posterior.marginal_fixed_grid"):
        posterior.marginal_component_density(
            wp, 0, np.linspace(0.01, 1.2 * max(data), posterior.DEFAULT_GRID_POINTS))
    for _ in range(5):
        with tr.span("datasets.sample"):
            inputs.draw(FIT, 0)
