"""Command-line surface: ingest data, run the engine or oracle, write artifacts.

Configuration may come from a JSON document (--config), individual flags,
or both; flags override the document. Exit codes: 2 invalid configuration,
3 ingestion failure, 4 resource limit, 5 oracle cap exceeded, 6 non-finite
result.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import datasets, lattice, oracle, posterior
from .errors import (
    EXIT_INGEST_FAILURE,
    EXIT_INVALID_CONFIG,
    EXIT_NUMERICAL,
    EXIT_ORACLE_CAP,
    EXIT_RESOURCE_LIMIT,
    IngestError,
    NumericalError,
    OracleCapError,
    ResourceLimitError,
    UnsupportedFamilyError,
)
from .families import (
    DirichletMultinomial,
    NormalInverseGamma,
    PoissonGamma,
    check_observation,
)
from .lattice import DEFAULT_ENTRY_BUDGET
from .oracle import DEFAULT_ORACLE_CAP
from .posterior import DEFAULT_GRID_POINTS, MixturePrior


@dataclass
class RunConfig:
    """Resolved run settings: JSON config overlaid with command-line flags."""

    command: str
    family: str | None = None
    k: int = 2
    alpha: list[float] | None = None
    components: list[dict] | None = None
    data: str | None = None
    seed: int | None = None
    synthetic: str | None = None
    param: str | None = None
    grid: dict | None = None
    threshold: float = 0.99
    entry_budget: int = DEFAULT_ENTRY_BUDGET
    oracle_cap: int = DEFAULT_ORACLE_CAP
    threads: int = 1  # accepted for compatibility; the engine is single-threaded
    out: str | None = None
    compare: bool = False
    dump_table: str | None = None


def ingest(path: str, family: str) -> tuple[list, dict]:
    """Parse and validate a dataset file; returns (observations, report)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    data = []
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text:
            continue
        cells = [c.strip() for c in text.split(",")]
        try:
            if "" in cells:
                raise ValueError(f"empty cell in {text!r}")
            if family == "poisson":
                if len(cells) != 1:
                    raise ValueError("expected one integer per line")
                obs = int(cells[0])
            elif family == "multinomial":
                obs = tuple(int(c) for c in cells)
            elif family == "normal":
                if len(cells) != 1:
                    raise ValueError("expected one real per line")
                obs = float(cells[0])
            else:
                raise IngestError(f"unknown family {family!r}")
            check_observation(family, obs)
        except (ValueError, TypeError) as exc:
            raise IngestError(f"{path} line {lineno}: {exc}") from exc
        data.append(obs)

    if not data:
        raise IngestError(f"{path}: no observations")
    if family == "multinomial":
        widths = {len(obs) for obs in data}
        if len(widths) != 1:
            raise IngestError(f"{path}: rows disagree on category count: {sorted(widths)}")
        totals = [sum(obs) for obs in data]
        report = {"n": len(data), "min": min(totals), "max": max(totals), "sum": sum(totals)}
    else:
        report = {"n": len(data), "min": min(data), "max": max(data), "sum": sum(data)}
    return data, report


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _parse_synthetic(spec: str, seed: int | None) -> list[int]:
    if seed is None:
        raise ValueError("--synthetic requires --seed")
    kind, _, rest = spec.partition(":")
    kv: dict[str, float] = {}
    for item in rest.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad synthetic spec item {item!r}")
        kv[key.strip()] = float(value)
    if kind == "poisson":
        return datasets.poisson_sample(int(kv.pop("n")), kv.pop("rate"), seed)
    if kind == "mixture":
        return datasets.poisson_mixture_sample(
            int(kv.pop("n")), kv.pop("weight"), kv.pop("rate1"), kv.pop("rate2"), seed
        )
    raise ValueError(f"unknown synthetic kind {kind!r} (use poisson or mixture)")


def _component_prior(family: str, spec: dict):
    if family == "poisson":
        return PoissonGamma(spec["shape"], spec["rate"])
    if family == "multinomial":
        return DirichletMultinomial(tuple(spec["concentration"]))
    if family == "normal":
        return NormalInverseGamma(
            spec["location"], spec["precision_scale"], spec["shape"], spec["scale"]
        )
    raise ValueError(f"unknown family {family!r}")


def build_prior(config: RunConfig, data: list) -> MixturePrior:
    family = config.family
    k = config.k
    alpha = tuple(config.alpha) if config.alpha else (1.0,) * k
    if len(alpha) != k:
        raise ValueError(f"alpha has {len(alpha)} entries for k={k}")
    if config.components is not None:
        if len(config.components) != k:
            raise ValueError(f"{len(config.components)} component priors for k={k}")
        comps = tuple(_component_prior(family, spec) for spec in config.components)
    elif family == "poisson":
        comps = tuple(PoissonGamma(1.0, 1.0) for _ in range(k))
    elif family == "multinomial":
        v = len(data[0])
        comps = tuple(DirichletMultinomial((0.5,) * v) for _ in range(k))
    else:
        # no documented default for normal components; demand explicit ones
        raise ValueError("normal runs need explicit component priors")
    return MixturePrior(alpha, comps)


def resolve_data(config: RunConfig) -> tuple[list, dict | None]:
    if config.data is not None:
        if config.family is None:
            raise ValueError("--data needs --family to parse the file")
        return ingest(config.data, config.family)
    if config.synthetic is not None:
        data = _parse_synthetic(config.synthetic, config.seed)
        if config.family is None:
            config.family = "poisson"
        elif config.family != "poisson":
            raise ValueError("the synthetic generator emits Poisson counts only")
        return data, {"n": len(data), "min": min(data), "max": max(data), "sum": sum(data)}
    raise ValueError("no dataset: pass --data or --synthetic with --seed")


def _parse_param(param: str, k: int) -> tuple[str, int, int | None]:
    """Split a marginal name into (kind, component index, category index)."""
    if param.startswith("lambda"):
        kind, body = "lambda", param[len("lambda") :]
    elif param.startswith("q"):
        kind, body = "q", param[1:]
    elif param.startswith("p"):
        kind, body = "p", param[1:]
    else:
        raise ValueError(f"unknown marginal parameter {param!r}")
    try:
        if kind == "q":
            j_text, _, u_text = body.partition(",")
            j, u = int(j_text), int(u_text)
        else:
            j, u = int(body), None
    except ValueError as exc:
        raise ValueError(f"malformed marginal parameter {param!r}") from exc
    if not (1 <= j <= k):
        raise ValueError(f"component index in {param!r} out of range for k={k}")
    return kind, j - 1, (u - 1) if u is not None else None


def _explicit_grid(config: RunConfig) -> np.ndarray | None:
    if config.grid is None:
        return None
    g = config.grid
    points = int(g.get("points", DEFAULT_GRID_POINTS))
    if points < 2:
        raise ValueError(f"grid needs at least 2 points, got {points}")
    return np.linspace(float(g["lower"]), float(g["upper"]), points)


def _write_artifact(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _marginal(config: RunConfig, wp: posterior.WeightedPosterior) -> posterior.DensityGrid:
    if config.param is None:
        raise ValueError("marginal needs --param (lambda<j>, q<j>,<u>, or p<j>)")
    kind, j, u = _parse_param(config.param, config.k)
    grid = _explicit_grid(config)
    if kind == "p":
        return posterior.marginal_weight_density(wp, j, grid)
    if kind == "q":
        if u is None:
            raise ValueError("category marginals are named q<j>,<u>")
        return posterior.marginal_component_density(wp, j, grid, category=u)
    return posterior.marginal_component_density(wp, j, grid)


def run_subcommand(config: RunConfig) -> int:
    data, report = resolve_data(config)
    if report is not None:
        print(
            f"ingest n={report['n']} min={report['min']} max={report['max']} sum={report['sum']}"
        )

    if config.command == "oracle":
        prior = build_prior(config, data)
        result = oracle.oracle_posterior(data, prior, cap=config.oracle_cap)
        _write_artifact(result.summary().to_text(), config.out)
        if config.dump_table is not None:
            with open(config.dump_table, "w", encoding="utf-8", newline="") as handle:
                handle.write(oracle.weight_table_csv(data, prior, cap=config.oracle_cap))
        if config.compare:
            lat = lattice.build(data, config.k, config.family, budget=config.entry_budget)
            wp = posterior.normalize(lat, prior)
            _, _, verdict = oracle.compare_report(wp, result)
            print(verdict)
        return 0

    if config.command == "enumerate":
        lat = lattice.build(data, config.k, config.family, budget=config.entry_budget)
        expected = config.k ** lat.n
        total = lat.total_count()
        status = "OK" if total == expected else "FAIL"
        print(f"distinct={lat.distinct_count()} total={total} expected={expected} {status}")
        if config.out is not None:
            _write_artifact(lattice.dump(lat), config.out)
        return 0

    lat = lattice.build(data, config.k, config.family, budget=config.entry_budget)
    prior = build_prior(config, data)
    wp = posterior.normalize(lat, prior)

    if config.command == "posterior":
        _write_artifact(posterior.summarize(wp).to_text(), config.out)
    elif config.command == "marginal":
        _write_artifact(_marginal(config, wp).to_csv(), config.out)
    elif config.command == "evidence":
        print(repr(wp.log_evidence))
    elif config.command == "concentration":
        print(posterior.mass_concentration(wp, config.threshold))
    else:
        raise ValueError(f"unknown subcommand {config.command!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixexact",
        description="Exact mixture posteriors by sufficient-statistic enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("enumerate", "build the statistic lattice and check conservation"),
        ("posterior", "write the posterior summary document"),
        ("marginal", "write a marginal density grid as CSV"),
        ("evidence", "print the log marginal likelihood"),
        ("concentration", "print how many entries carry the top weight mass"),
        ("oracle", "run the brute-force path, optionally comparing the engine"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration document")
        p.add_argument("--data", help="dataset file (counts, CSV rows, or reals)")
        p.add_argument("--family", choices=["poisson", "multinomial", "normal"])
        p.add_argument("--k", type=int, help="number of mixture components")
        p.add_argument("--alpha", help="Dirichlet concentrations, e.g. 1,1")
        p.add_argument(
            "--gamma", help="per-component Gamma shape,rate pairs separated by ';'"
        )
        p.add_argument(
            "--beta", help="per-component Dirichlet concentrations separated by ';'"
        )
        p.add_argument(
            "--nig",
            help="per-component location,precision_scale,shape,scale separated by ';'",
        )
        p.add_argument("--param", help="marginal name: lambda<j>, q<j>,<u>, or p<j>")
        p.add_argument("--grid", help="explicit uniform grid lower,upper,points")
        p.add_argument("--threshold", type=float, help="mass threshold (default 0.99)")
        p.add_argument("--budget", type=int, help="lattice entry budget")
        p.add_argument("--cap", type=int, help="oracle allocation cap")
        p.add_argument("--threads", type=int, help="accepted for compatibility; no effect")
        p.add_argument("--seed", type=int, help="seed for the synthetic generator")
        p.add_argument(
            "--synthetic",
            help="synthetic dataset spec: poisson:n=..,rate=.. or "
            "mixture:n=..,weight=..,rate1=..,rate2=..",
        )
        p.add_argument("--out", help="artifact output path (default: stdout)")
        if name == "oracle":
            p.add_argument("--compare", action="store_true", help="also run the engine and compare")
            p.add_argument("--dump-table", help="write the per-allocation weight table CSV here")
    return parser


def _components_from_flags(args: argparse.Namespace) -> list[dict] | None:
    if getattr(args, "gamma", None):
        out = []
        for chunk in args.gamma.split(";"):
            shape, rate = _parse_floats(chunk)
            out.append({"shape": shape, "rate": rate})
        return out
    if getattr(args, "beta", None):
        return [{"concentration": _parse_floats(chunk)} for chunk in args.beta.split(";")]
    if getattr(args, "nig", None):
        out = []
        for chunk in args.nig.split(";"):
            location, precision_scale, shape, scale = _parse_floats(chunk)
            out.append(
                {
                    "location": location,
                    "precision_scale": precision_scale,
                    "shape": shape,
                    "scale": scale,
                }
            )
        return out
    return None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(document, dict):
            raise ValueError("config document must be a JSON object")
        for key in (
            "family",
            "k",
            "alpha",
            "components",
            "data",
            "seed",
            "synthetic",
            "param",
            "grid",
            "threshold",
            "entry_budget",
            "oracle_cap",
            "threads",
            "out",
        ):
            if key in document:
                setattr(config, key, document[key])
        unknown = set(document) - {
            "family", "k", "alpha", "components", "data", "seed", "synthetic",
            "param", "grid", "threshold", "entry_budget", "oracle_cap", "threads", "out",
        }
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    if args.family:
        config.family = args.family
    if args.k is not None:
        config.k = args.k
    if args.alpha:
        config.alpha = _parse_floats(args.alpha)
    flag_components = _components_from_flags(args)
    if flag_components is not None:
        config.components = flag_components
    if args.data:
        config.data = args.data
    if args.seed is not None:
        config.seed = args.seed
    if args.synthetic:
        config.synthetic = args.synthetic
    if args.param:
        config.param = args.param
    if args.grid:
        lower, upper, points = _parse_floats(args.grid)
        config.grid = {"lower": lower, "upper": upper, "points": int(points)}
    if args.threshold is not None:
        config.threshold = args.threshold
    if args.budget is not None:
        config.entry_budget = args.budget
    if args.cap is not None:
        config.oracle_cap = args.cap
    if args.threads is not None:
        config.threads = args.threads
    if args.out:
        config.out = args.out
    config.compare = bool(getattr(args, "compare", False))
    config.dump_table = getattr(args, "dump_table", None)

    if config.k < 1:
        raise ValueError(f"k must be >= 1, got {config.k}")
    if config.threads < 1:
        raise ValueError(f"threads must be >= 1, got {config.threads}")
    if not (0 < config.threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {config.threshold}")
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return run_subcommand(config)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST_FAILURE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, UnsupportedFamilyError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
