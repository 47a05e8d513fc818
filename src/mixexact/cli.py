"""Command-line surface: ingest data, run the engine or oracle, write artifacts.

Configuration may come from a JSON document (--config), individual flags,
or both; flags override the document. A document carries exactly the
RunConfig fields that flags set. Exit codes: 2 invalid configuration,
3 ingestion failure, 4 resource limit or out of memory, 5 oracle cap
exceeded, 6 non-finite result.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import types
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from . import datasets, lattice, oracle, posterior
from .errors import IngestError, MixtureError, ResourceLimitError
from .families import DirichletMultinomial, NormalInverseGamma, PoissonGamma, fsum, observe
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
    out: str | None = None
    compare: bool = False
    dump_table: str | None = None


# set by the subcommand line only; every other RunConfig field is a config key
_COMMAND_FIELDS = ("command", "compare", "dump_table")

# family -> (component prior class, flag spelling its components, default spec given an observation)
_PRIORS = {
    "poisson": (PoissonGamma, "gamma", lambda obs: {"shape": 1.0, "rate": 1.0}),
    "multinomial": (DirichletMultinomial, "beta", lambda obs: {"concentration": [0.5] * len(obs)}),
    "normal": (NormalInverseGamma, "nig", None),  # no documented default: demand explicit priors
}


@dataclass(frozen=True)
class _Grid:
    """The keys of an explicit grid setting."""

    lower: float
    upper: float
    points: int = DEFAULT_GRID_POINTS


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; a bool is no number."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in args)
    if args:  # list[X] or tuple[X, ...]
        return isinstance(value, (list, tuple)) and all(_conforms(v, args[0]) for v in value)
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))


def _build(cls, spec, where: str = ""):
    """cls(**spec), once spec has all required keys of cls, no other, each of its declared type."""
    declared = {f.name: f.type for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    if not (isinstance(spec, dict) and required <= set(spec) <= set(declared)):
        names = [name if name in required else f"[{name}]" for name in declared]
        raise ValueError(f"{where} must have the keys {', '.join(names)}, got {spec!r}")
    hints = typing.get_type_hints(cls)
    for key, value in spec.items():
        if not _conforms(value, hints[key]):
            raise ValueError(f"{where}{'.' if where else ''}{key} must be {declared[key]}, got {value!r}")
    return cls(**spec)


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
            # the first row fixes the category count, so a ragged row names its own line
            observe(family, obs, len(data[0]) if data and family == "multinomial" else None)
        except (ValueError, TypeError) as exc:
            raise IngestError(f"{path} line {lineno}: {exc}") from exc
        data.append(obs)

    if not data:
        raise IngestError(f"{path}: no observations")
    if family == "multinomial":
        return data, _report([sum(obs) for obs in data])
    return data, _report(data)


def _report(values: list) -> dict:
    """Size, extremes and sum of the values (row totals for multinomial data);
    reals sum by `fsum`, so no interpreter's `sum()` changes the line."""
    total = fsum(values) if isinstance(values[0], float) else sum(values)
    return {"n": len(values), "min": min(values), "max": max(values), "sum": total}


def _parse_floats(text: str) -> list[float]:
    cells = text.split(",")
    if not all(c.strip() for c in cells):
        raise ValueError(f"empty cell in {text!r}")
    return [float(c) for c in cells]


_SYNTHETIC = {
    "poisson": (datasets.poisson_sample, ("n", "rate")),
    "mixture": (datasets.poisson_mixture_sample, ("n", "weight", "rate1", "rate2")),
}


def _parse_synthetic(spec: str, seed: int | None) -> list[int]:
    if seed is None:
        raise ValueError("--synthetic requires --seed")
    kind, _, rest = spec.partition(":")
    if kind not in _SYNTHETIC:
        raise ValueError(f"unknown synthetic kind {kind!r} (use poisson or mixture)")
    sample, names = _SYNTHETIC[kind]
    kv: dict[str, float] = {}
    for item in rest.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad synthetic spec item {item!r}")
        if key.strip() in kv:
            raise ValueError(f"--synthetic {kind} repeats the key {key.strip()!r}")
        kv[key.strip()] = float(value)
    if set(kv) != set(names):
        raise ValueError(f"--synthetic {kind} takes {','.join(n + '=..' for n in names)}, got {rest!r}")
    n, *params = (kv[name] for name in names)
    if not n.is_integer():
        raise ValueError(f"--synthetic {kind} takes a whole, finite n, got {n!r}")
    return sample(int(n), *params, seed)


def build_prior(config: RunConfig, data: list) -> MixturePrior:
    family = config.family
    k = config.k
    alpha = tuple(config.alpha) if config.alpha else (1.0,) * k
    cls, flag, default = _PRIORS[family]
    specs = config.components
    if specs is None:
        if default is None:
            raise ValueError(f"{family} runs need explicit component priors (--{flag})")
        specs = [default(data[0])] * k
    if len(specs) != k:
        raise ValueError(f"{len(specs)} component priors for k={k}")
    comps = tuple(_build(cls, spec, f"components[{i}]") for i, spec in enumerate(specs))
    return MixturePrior(alpha, comps)


def resolve_data(config: RunConfig) -> tuple[list, dict]:
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
        return data, _report(data)
    raise ValueError("no dataset: pass --data or --synthetic with --seed")


def _parse_param(param: str, k: int) -> tuple[str, int, int | None]:
    """Split a marginal name into (kind, component index, category index)."""
    match = re.fullmatch(r"(lambda|p|q)([0-9]+)(?:,([0-9]+))?", param)
    if match is None or (match[1] == "q") != (match[3] is not None):
        raise ValueError(f"unknown marginal parameter {param!r} (use lambda<j>, q<j>,<u>, or p<j>)")
    kind, j, u = match[1], int(match[2]), match[3]
    if not (1 <= j <= k):
        raise ValueError(f"component index in {param!r} out of range for k={k}")
    return kind, j - 1, int(u) - 1 if u is not None else None


def _explicit_grid(config: RunConfig) -> np.ndarray | None:
    if config.grid is None:
        return None
    g = _build(_Grid, config.grid, "grid")
    if g.points < 2:
        raise ValueError(f"grid needs at least 2 points, got {g.points}")
    if not (math.isfinite(g.lower) and math.isfinite(g.upper)):
        raise ValueError(f"grid bounds must be finite, got lower={g.lower!r} upper={g.upper!r}")
    return np.linspace(g.lower, g.upper, g.points)


def _write_artifact(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:  # the path is configuration
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _marginal(config: RunConfig, wp: posterior.WeightedPosterior) -> posterior.DensityGrid:
    if config.param is None:
        raise ValueError("marginal needs --param (lambda<j>, q<j>,<u>, or p<j>)")
    kind, j, u = _parse_param(config.param, config.k)
    grid = _explicit_grid(config)
    if kind == "p":
        return posterior.marginal_weight_density(wp, j, grid)
    return posterior.marginal_component_density(wp, j, grid, category=u)


def run_subcommand(config: RunConfig) -> int:
    data, report = resolve_data(config)
    print(f"ingest n={report['n']} min={report['min']} max={report['max']} sum={report['sum']}")

    if config.command == "oracle":
        prior = build_prior(config, data)
        # --compare weighs the lattice first, so a family without one writes no artifact
        if config.compare:
            lat = lattice.build(data, config.k, config.family, budget=config.entry_budget)
            wp = posterior.normalize(lat, prior)
        result = oracle.oracle_posterior(data, prior, cap=config.oracle_cap)
        _write_artifact(result.summary().to_text(), config.out)
        if config.dump_table is not None:
            _write_artifact(oracle.weight_table_csv(data, prior, cap=config.oracle_cap), config.dump_table)
        if config.compare:
            print(oracle.compare_report(wp, result)[2])
        return 0

    lat = lattice.build(data, config.k, config.family, budget=config.entry_budget)
    if config.command == "enumerate":
        expected = config.k ** lat.n
        total = lat.total_count()
        status = "OK" if total == expected else "FAIL"
        print(f"distinct={lat.distinct_count()} total={total} expected={expected} {status}")
        if config.out is not None:
            _write_artifact(lattice.dump(lat), config.out)
        return 0

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
        p.add_argument("--family", choices=list(_PRIORS))
        p.add_argument("--k", type=int, help="number of mixture components")
        p.add_argument("--alpha", help="Dirichlet concentrations, e.g. 1,1")
        for family, (cls, flag, _) in _PRIORS.items():
            names = ",".join(f.name for f in fields(cls))
            p.add_argument(f"--{flag}", help=f"{family} priors: {names} per component, separated by ';'")
        p.add_argument("--param", help="marginal name: lambda<j>, q<j>,<u>, or p<j>")
        p.add_argument("--grid", help="explicit uniform grid lower,upper,points")
        p.add_argument("--threshold", type=float, help="mass threshold (default 0.99)")
        p.add_argument("--budget", dest="entry_budget", type=int, help="lattice entry budget")
        p.add_argument("--cap", dest="oracle_cap", type=int, help="oracle allocation cap")
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


def _parse_grid(text: str) -> dict:
    values = _parse_floats(text)
    if len(values) != 3 or not values[2].is_integer():
        raise ValueError(f"--grid takes lower,upper,points with whole points, got {text!r}")
    return {"lower": values[0], "upper": values[1], "points": int(values[2])}


# flags whose text is parsed before it becomes the field's value
_FLAG_PARSERS = {"alpha": _parse_floats, "grid": _parse_grid}


def _overlay_prior_flag(args: argparse.Namespace, config: RunConfig) -> None:
    given = [(fam, flag) for fam, (_, flag, _) in _PRIORS.items() if getattr(args, flag)]
    if not given:
        return
    if len(given) > 1:
        raise ValueError(f"{' and '.join('--' + flag for _, flag in given)} are exclusive")
    fam, flag = given[0]
    if config.family is not None and config.family != fam:
        raise ValueError(f"--{flag} sets {fam} priors, but the family is {config.family}")
    names = [f.name for f in fields(_PRIORS[fam][0])]
    rows = [_parse_floats(chunk) for chunk in getattr(args, flag).split(";")]
    if len(names) > 1 and any(len(row) != len(names) for row in rows):
        raise ValueError(f"--{flag} takes {','.join(names)} per component, got {getattr(args, flag)!r}")
    # a one-field prior takes the whole row (the concentration vector)
    config.components = [dict(zip(names, row)) if len(names) > 1 else {names[0]: row} for row in rows]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    document = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(document, dict):
            raise ValueError("config document must be a JSON object")
        unknown = set(document) - ({f.name for f in fields(RunConfig)} - set(_COMMAND_FIELDS))
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    config = _build(RunConfig, {**document, "command": args.command})
    if config.family not in (None, *_PRIORS):
        raise ValueError(f"family must be one of {', '.join(_PRIORS)}, got {config.family!r}")
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value not in (None, ""):  # an empty flag, say --out "$OUT", leaves the setting as it was
            setattr(config, f.name, _FLAG_PARSERS.get(f.name, lambda text: text)(value))
    _overlay_prior_flag(args, config)

    if config.k < 1:
        raise ValueError(f"k must be >= 1, got {config.k}")
    if not (0 < config.threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {config.threshold}")
    # the n=0 lattice holds one entry, and an oracle run at least one allocation
    if config.entry_budget < 1:
        raise ValueError(f"entry budget must be >= 1, got {config.entry_budget}")
    if config.oracle_cap < 1:
        raise ValueError(f"oracle cap must be >= 1, got {config.oracle_cap}")
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return run_subcommand(config)
    except (MixtureError, MemoryError, ValueError, KeyError, TypeError) as exc:
        # a MemoryError may carry no message, and runs out of a resource
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, MemoryError):
            return ResourceLimitError.exit_code
        return getattr(exc, "exit_code", MixtureError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
