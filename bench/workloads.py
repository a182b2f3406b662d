"""The benchmark's workloads: inputs drawn from a seed, and their CLI calls.

Every workload is one ``polygenocchi`` job a user would run, at a size
that keeps one iteration well under a minute on a 2-core machine:

* ``verify-all``: ``verify --suite all --order 12`` on the default grid
  shape, the three fixed points of ``default_samples`` plus two random
  points drawn from the seed.  The headline verification job; verifier
  self time and the expansion cache dominate it.
* ``verify-wide``: the same command on 12 random points at ``--order 6``.
  Same layers, larger working set of small rationals, less re-expansion
  per instance, so a cache or context change shows its cost here.
* ``table-deep``: ``table`` for type1 and then type2, ``--k 3 --alpha 3
  --n-max 120``, at one random generic point, in one process.  It skips
  the verifier and the expansion cache; kernels and series dominate it.

Random points follow the rules of ``default_samples``: small-height
rationals with lam outside {-1, 0, 1}, ln a + ln b != 0 and ln c outside
{0, 1}.  The draw is the same as ``default_samples`` makes, so
``verify-all`` at seed s is the grid ``verify --seed s`` uses.  The
table-deep point also has ln a and ln b nonzero, so that both exponential
factors of the denominator take part.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

Point = tuple[Fraction, Fraction, Fraction, Fraction]  # lam, ln a, ln b, ln c

FIXED_POINTS: tuple[Point, ...] = (
    (Fraction(1), Fraction(0), Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(0)),
)

TABLE_N_MAX = 120
TABLE_ARGS = ("--k", "3", "--alpha", "3", "--n-max", str(TABLE_N_MAX))
TABLE_FAMILIES = ("type1", "type2")


def random_points(rng: random.Random, count: int, generic: bool = False):
    """Points under the non-degeneracy rules of ``default_samples``."""
    points: list[Point] = []
    while len(points) < count:
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        ln_a = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        ln_b = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        ln_c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        if lam in (-1, 0, 1) or ln_a + ln_b == 0 or ln_c in (0, 1):
            continue
        if generic and 0 in (ln_a, ln_b):
            continue
        points.append((lam, ln_a, ln_b, ln_c))
    return points


@dataclass(frozen=True)
class Call:
    """One ``polygenocchi.cli.main`` call and where its outputs go."""

    argv: tuple[str, ...]
    stdout: Path
    out: Path | None  # the --out report of a verify call
    family: str | None = None  # the table family


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "verify" or "table"
    order: int = 0
    random_count: int = 0
    with_fixed: bool = False

    def points(self, seed: int) -> list[Point]:
        rng = random.Random(seed)
        if self.kind == "table":
            return random_points(rng, 1, generic=True)
        fixed = list(FIXED_POINTS) if self.with_fixed else []
        return fixed + random_points(rng, self.random_count)

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        """Write the inputs for ``seed`` under ``workdir``; return the calls."""
        points = self.points(seed)
        if self.kind == "verify":
            config = workdir / "grid.json"
            config.write_text(json.dumps(
                {"samples": [[str(v) for v in p] for p in points]}
            ))
            report = workdir / "report.json"
            argv = (
                "verify", "--suite", "all", "--order", str(self.order),
                "--config", str(config), "--out", str(report),
            )
            return [Call(argv, workdir / "verify.out", report)]
        lam, ln_a, ln_b, ln_c = points[0]
        # "--flag=value" keeps argparse from reading "-1/2" as an option
        point_args = (
            f"--lambda={lam}", f"--ln-a={ln_a}", f"--ln-b={ln_b}",
            f"--ln-c={ln_c}",
        )
        return [
            Call(
                ("table", "--family", family) + TABLE_ARGS + point_args,
                workdir / f"{family}.csv",
                None,
                family,
            )
            for family in TABLE_FAMILIES
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            "the headline job: verify --suite all at order 12 on the default "
            "grid shape; verifier self time and family_series dominate",
            "verify", order=12, random_count=2, with_fixed=True,
        ),
        Workload(
            "verify-wide",
            "verify --suite all at order 6 on 12 random points: larger working "
            "set of small rationals, less re-expansion per instance",
            "verify", order=6, random_count=12,
        ),
        Workload(
            "table-deep",
            "table type1 then type2 at k=3 alpha=3 n-max=120: kernels and "
            "series only, no verifier and one request per family",
            "table",
        ),
    )
}
