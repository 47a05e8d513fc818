"""Seeded benchmark inputs: generation, size control and the set-up probe.

Every input is a pure function of the run's seed. The lattice size of a
draw varies widely between draws of one generator (for k=3, n=20 the entry
count of a single draw ranges over a factor of four), and every timed layer
scales with it. So a run walks the seed's candidate draws in a fixed order
and keeps the first whose entry count and build work (successors spawned)
both lie within SIZE_TOLERANCE of the workload's target; when none does
within MAX_CANDIDATES draws, the closest one is kept. Sizes are counted by
`growth`, an array recount written here independently of the engine, so it
also checks the engine's entry counts.

Run as a script, this file is the timed set-up probe: a fresh interpreter
imports mixexact, regenerates the chosen inputs and writes them:

    python3 bench/inputs.py CHOICE.json OUTDIR
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

SIZE_TOLERANCE = 0.04
MAX_CANDIDATES = 1000

# the README's worked example: 42 distinct statistics, total 2^7
WORKED_EXAMPLE = (0, 0, 0, 1, 2, 2, 4)
WORKED_EVIDENCE = "-12.490069462412716"


@dataclass(frozen=True)
class PoissonSpec:
    """Draws of datasets.poisson_mixture_sample, fitted with k components."""

    n: int
    weight: float
    rate1: float
    rate2: float
    k: int
    target_entries: int
    target_successors: int


@dataclass(frozen=True)
class MultinomialSpec:
    """Rows of `total` counts over len(pvals[0]) categories, 2-component mixture."""

    n: int
    total: int
    pvals: tuple[tuple[float, ...], tuple[float, ...]]
    weight: float
    k: int
    oracle_rows: int
    target_entries: int
    target_successors: int


def subseed(seed: int, index: int) -> int:
    """Seed of the index-th candidate draw of a run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def draw_poisson(spec: PoissonSpec, sub: int) -> list[int]:
    from mixexact import datasets

    return datasets.poisson_mixture_sample(spec.n, spec.weight, spec.rate1, spec.rate2, sub)


def draw_multinomial(spec: MultinomialSpec, sub: int) -> list[tuple[int, ...]]:
    # mixexact.datasets has no multinomial generator, so the rows come from here
    rng = np.random.default_rng(sub)
    first = rng.random(spec.n) < spec.weight
    pvals = np.where(first[:, None], spec.pvals[0], spec.pvals[1])
    rows = rng.multinomial(spec.total, pvals)
    return [tuple(int(c) for c in row) for row in rows]


def draw(spec, sub: int) -> list:
    if isinstance(spec, PoissonSpec):
        return draw_poisson(spec, sub)
    return draw_multinomial(spec, sub)


def statistic_rows(data: list) -> np.ndarray:
    """(n, m) per-observation statistic totals: the count, or the count vector."""
    rows = np.asarray(data, dtype=np.int64)
    return rows[:, None] if rows.ndim == 1 else rows


def growth(data: list, k: int, limit: int | None = None) -> list[int] | None:
    """Distinct-statistic count after each observation, or None past `limit`.

    Each key (n_1, S_1, ..., n_k, S_k) is packed into one int64 with slot 1
    most significant; absorbing an observation into slot j adds a constant
    to the code, so each step is k shifted copies of the sorted codes
    merged and deduplicated.
    """
    rows = statistic_rows(data)
    n = rows.shape[0]
    radix = [n + 1] + [int(c) + 1 for c in rows.sum(axis=0)]
    place = [1] * len(radix)
    for d in range(len(radix) - 2, -1, -1):
        place[d] = place[d + 1] * radix[d + 1]
    base = place[0] * radix[0]
    if base**k >= 2**63:
        raise ValueError(f"statistic codes need {base**k:.3g} values, beyond int64")
    steps = np.concatenate([np.ones((n, 1), np.int64), rows], axis=1) @ np.array(place, np.int64)
    shifts = [base ** (k - 1 - j) for j in range(k)]
    codes = np.sort(np.array([steps[0] * s for s in shifts], np.int64))
    sizes = [codes.size]
    for step in steps[1:]:
        # the k shifted copies are each sorted, so a stable (merge) sort is cheap
        merged = np.sort(np.concatenate([codes + step * s for s in shifts]), kind="stable")
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        codes = merged[keep]
        sizes.append(codes.size)
        if limit is not None and codes.size > limit:
            return None
    return sizes


def successors(sizes: list[int], k: int) -> int:
    """Successor keys spawned over the whole build: sum of k * E_(t-1)."""
    return k * sum(sizes[:-1])


def choose(spec, seed: int) -> dict:
    """Pick the seed's first candidate draw of the target size (see module doc)."""
    te, ts = spec.target_entries, spec.target_successors
    limit = int(te * (1 + SIZE_TOLERANCE))
    best = None
    for index in range(MAX_CANDIDATES):
        sub = subseed(seed, index)
        data = draw(spec, sub)
        sizes = growth(data, spec.k, limit=None if best is None else limit)
        if sizes is None:
            continue
        entries, succ = sizes[-1], successors(sizes, spec.k)
        miss = max(abs(entries / te - 1), abs(succ / ts - 1))
        if best is None or miss < best["miss"]:
            best = {"index": index, "subseed": sub, "entries": entries,
                    "successors": succ, "miss": miss, "sizes": sizes}
        if miss <= SIZE_TOLERANCE:
            break
    best["candidates"] = index + 1
    return best


def spec_to_json(spec) -> dict:
    return {"kind": type(spec).__name__, **asdict(spec)}


def spec_from_json(doc: dict):
    doc = dict(doc)
    kind = doc.pop("kind")
    if kind == "PoissonSpec":
        return PoissonSpec(**doc)
    doc["pvals"] = tuple(tuple(p) for p in doc["pvals"])
    return MultinomialSpec(**doc)


def format_rows(data: list) -> str:
    return "".join(
        (",".join(str(c) for c in obs) if isinstance(obs, tuple) else str(obs)) + "\n"
        for obs in data
    )


def input_files(spec, sub: int) -> dict[str, str]:
    """File name -> text of every input a workload reads."""
    data = draw(spec, sub)
    if isinstance(spec, PoissonSpec):
        return {"data.txt": format_rows(data)}
    return {
        "worked.txt": format_rows(list(WORKED_EXAMPLE)),
        "multi.csv": format_rows(data),
        "multi_head.csv": format_rows(data[: spec.oracle_rows]),
    }


def write_inputs(spec, sub: int, outdir: Path) -> str:
    """Write the inputs and return their digest (sha256 over names and bytes)."""
    outdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, text in sorted(input_files(spec, sub).items()):
        (outdir / name).write_text(text, encoding="utf-8")
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    choice = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    import mixexact  # noqa: F401  (set-up time includes the package import)

    print(write_inputs(spec_from_json(choice["spec"]), choice["subseed"], Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
