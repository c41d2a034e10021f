"""Seeded workload generator for the retword benchmark.

A workload is a list of rounds; a round is a fixed list of job slots, each
filled with a freshly drawn input, and a pass runs every round once.  Runs
make whole passes, so every run sees the same mix of job kinds and sizes and
only the drawn inputs change with the seed.  Every job carries the answer
the benchmark's oracles expect (see ``oracles.py``), so a draw whose answer
is unknown, or is an error, is rejected here and never reaches the program.

    python3 perfbench/gen.py --workload derivation --seed 3 --out DIR

writes the inputs of one workload and prints their digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

import naive
import oracles
from naive import Sub

LETTERS = "abcdefghijklmnop"

# Derived jobs decode to at most this many letters (see ``JobSet.derived``),
# far below the library's default fixed-point cap of 10^7 letters.
DERIVED_HOST = 300_000

# Fixed-point jobs per fixpoint round and their length.  They are most of the
# workload's jobs, so its median and tail fall among them; the first job of
# the first round is FIXPOINT_LONGEST letters and sets the peak RSS.
FIXPOINT_JOBS = 6
FIXPOINT_LENGTH = 500_000
FIXPOINT_LONGEST = 2_000_000
# Return-word prefix lengths with the alphabet sizes they are drawn on.  On
# three or more letters a 10^4-letter prefix can have return words of 10^5 to
# 10^6 letters, and a few such draws would decide the whole pass.
RETURN_PREFIXES = ((100, 2, 6), (1_000, 2, 6), (10_000, 2, 2))

# Periodic jobs: every sample with every period whose product alphabet has
# 8-14 letters, plus one of 16 letters; products of 8-10 letters four times
# over and of 12 letters three times, with other periods.  A periodic job's
# cost depends on the product size only, so the repeats put the workload's
# median and tail among jobs whose cost does not depend on the draw.
# char_poly's cost doubles per letter: all 15- and 16-letter products would
# double a pass.
PERIODIC_LARGE = (("morse.sub", 8),)
PERIODIC_REPEATS = {8: 4, 9: 4, 10: 4, 12: 3}
SPECTRUM_JOBS = 6
COBHAM_JOBS = 5

# Rounds in one pass over the workload, sized so that a pass takes 5-12 s at
# the time of writing.  A timed run repeats whole passes; the traced run
# makes one pass.
ROUNDS = {"fixpoint": 3, "spectral": 1, "derivation": 36}

# Per-job time limit in seconds; a job past it counts as failed.
LIMITS = {"fixpoint": 20.0, "spectral": 30.0, "derivation": 20.0}


def draw_substitution(rng: random.Random, size: int, max_image: int) -> Sub:
    """A random primitive substitution whose fixed point is certified non-periodic.

    Images have 1..max_image letters (the start image at least 2 and starting
    with the start letter).  Rejected draws: not primitive; dominant
    eigenvalue not certified irrational (see ``naive.irrational_dominant``);
    or a 4096-letter prefix with a periodic tail of three periods from
    position 1024, which could mislead any bounded periodicity test.
    """
    letters = LETTERS[:size]
    while True:
        images = []
        for i in range(size):
            length = rng.randint(2 if i == 0 else 1, max_image)
            word = "".join(rng.choice(letters) for _ in range(length))
            images.append(letters[0] + word[1:] if i == 0 else word)
        sub = Sub(letters, tuple(images), letters[0])
        matrix = sub.matrix()
        if not naive.is_primitive(matrix) or not naive.irrational_dominant(matrix):
            continue
        if naive.has_periodic_tail(naive.fixed_point(sub, 4096), 1024):
            continue
        return sub


class JobSet:
    """Collects the jobs of one workload and the input files they read."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.drawn: dict[str, int] = {}
        self.files: dict[str, str] = {}
        self.limit = LIMITS[workload]

    def file(self, text: str) -> str:
        name = f"in/{hashlib.sha256(text.encode()).hexdigest()[:16]}.sub"
        self.files[name] = text
        return name

    def size(self, kind: str, lo: int, hi: int) -> int:
        """Alphabet sizes lo..hi in turn for each job kind, so that a pass holds
        each size about equally often."""
        n = self.drawn.get(kind, 0)
        self.drawn[kind] = n + 1
        return lo + n % (hi - lo + 1)

    def job(self, kind: str, argv: list[str], expect: dict) -> dict:
        return {"kind": kind, "argv": argv + ["--json"], "expect": expect, "limit": self.limit}

    # -- fixpoint ---------------------------------------------------------

    def fixed_point(self, length: int) -> dict:
        sub = draw_substitution(self.rng, self.size("fixed-point", 2, 6), 4)
        return self.job(
            "fixed-point",
            ["fixed-point", self.file(sub.text()), "--length", str(length)],
            oracles.expect_fixed_point(sub, length),
        )

    def return_words(self, length: int, lo: int, hi: int) -> dict:
        sub = draw_substitution(self.rng, self.size(f"return-words {length}", lo, hi), 4)
        u = naive.fixed_point(sub, length)
        return self.job(
            "return-words",
            ["return-words", self.file(sub.text()), "--prefix", u],
            oracles.expect_return_words(sub, u),
        )

    def derived(self) -> dict:
        """Derived prefix whose decoding stays under DERIVED_HOST letters.

        Each derived letter decodes to one return word, so n letters decode
        to at most n times the longest return word.
        """
        size = self.size("derived", 2, 6)
        while True:
            sub = draw_substitution(self.rng, size, 4)
            u = naive.fixed_point(sub, self.rng.randint(1, 8))
            try:
                data = naive.returns(sub, u)
            except ValueError:  # the return system did not close within the naive host
                continue
            if len(data.images[0]) >= 2:
                break
        n = DERIVED_HOST // max(len(w) for w in data.words)
        return self.job(
            "derived",
            ["derived", self.file(sub.text()), "--prefix", u, "--length", str(n)],
            oracles.expect_derived(data, n),
        )

    # -- spectral ---------------------------------------------------------

    def spectrum(self) -> dict:
        sub = draw_substitution(self.rng, self.size("spectrum", 8, 13), 3)
        return self.job("spectrum", ["spectrum", self.file(sub.text())], oracles.expect_spectrum(sub))

    def cobham(self) -> dict:
        sub = draw_substitution(self.rng, self.size("cobham", 6, 10), 3)
        a, b = self.rng.randint(1, 3), self.rng.randint(1, 3)
        return self.job(
            "cobham",
            [
                "cobham",
                "--left", self.file(sub.power(a).text()),
                "--right", self.file(sub.power(b).text()),
                "--bound", "24",
            ],
            oracles.expect_cobham(a, b),
        )

    def periodic(self, text: str, p: int) -> dict:
        sub = oracles.parse_sample(text)
        period = "".join(self.rng.choice(sub.letters) for _ in range(p))
        return self.job(
            "periodic",
            ["periodic", self.file(text), "--period", period],
            oracles.expect_periodic(sub, period, check_len=1000),
        )

    # -- derivation -------------------------------------------------------

    def derivation_round(self) -> list[dict]:
        """tower, relations, shared and circularity on one 2-4 letter substitution.

        Redraws until every one of the four jobs has a known answer that is
        not an exhausted budget: the tower repeats within depth 30, both
        circularity searches succeed and the relations checks all pass.
        """
        size = self.size("derivation", 2, 4)
        while True:
            sub = draw_substitution(self.rng, size, 3)
            lu = self.rng.randint(1, 3)
            v = naive.fixed_point(sub, self.rng.randint(lu + 1, lu + 4))
            try:
                tower = oracles.expect_tower(sub, 30)
                circularity = oracles.expect_circularity(sub) if tower else None
                relations = oracles.expect_relations(sub, v[:lu], v, span=3) if circularity else None
            except ValueError:  # a return system did not close within the naive host
                continue
            if relations is not None:
                break
        path = self.file(sub.text())
        return [
            self.job("tower", ["tower", path, "--depth", "30"], tower),
            self.job("relations", ["relations", path, "--u", v[:lu], "--v", v], relations),
            self.job(
                "shared",
                ["shared", "--left", path, "--right", self.file(sub.power(2).text())],
                oracles.expect_shared(sub),
            ),
            self.job("circularity", ["circularity", path], circularity),
        ]


def sample_files(root: Path) -> list[tuple[str, str]]:
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted((root / "samples").glob("*.sub"))]


def build_round(b: JobSet, samples: list[tuple[str, str]], index: int) -> list[dict]:
    """Round ``index`` of the workload: a fixed list of slots, drawn fresh."""
    if b.workload == "fixpoint":
        jobs = [b.fixed_point(FIXPOINT_LONGEST if index == i == 0 else FIXPOINT_LENGTH) for i in range(FIXPOINT_JOBS)]
        jobs += [b.return_words(*spec) for spec in RETURN_PREFIXES] + [b.derived()]
        b.rng.shuffle(jobs)
        return jobs
    if b.workload == "spectral":
        jobs = []
        for name, text in samples:
            size = len(oracles.parse_sample(text).letters)
            for p in range(-(-8 // size), 16 // size + 1):
                if size * p <= 14 or (name, p) in PERIODIC_LARGE:
                    jobs += [b.periodic(text, p) for _ in range(PERIODIC_REPEATS.get(size * p, 1))]
        jobs += [b.spectrum() for _ in range(SPECTRUM_JOBS)] + [b.cobham() for _ in range(COBHAM_JOBS)]
        b.rng.shuffle(jobs)
        return jobs
    if b.workload == "derivation":
        return b.derivation_round() + b.derivation_round()
    raise ValueError(f"unknown workload {b.workload!r}")


def generate(workload: str, seed: int, root: Path) -> dict:
    """The inputs of one run: rounds of jobs plus the files they name."""
    b = JobSet(workload, seed)
    samples = sample_files(root)
    rounds = [build_round(b, samples, i) for i in range(ROUNDS[workload])]
    return {"workload": workload, "seed": seed, "rounds": rounds, "files": b.files}


def digest(inputs: dict) -> str:
    """SHA-256 over every generated job and file, in a canonical order."""
    blob = json.dumps(
        {"rounds": [[{k: j[k] for k in ("kind", "argv", "limit")} for j in r] for r in inputs["rounds"]],
         "files": inputs["files"]},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def write_inputs(inputs: dict, out: Path) -> None:
    for name, text in inputs["files"].items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    inputs = generate(args.workload, args.seed, Path.cwd())
    write_inputs(inputs, Path(args.out))
    print(digest(inputs))


if __name__ == "__main__":
    main()
