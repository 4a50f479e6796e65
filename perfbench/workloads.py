"""The benchmark's three workloads: inputs, commands, output checks and trace targets.

Each workload turns the one ``--seed`` into every input the CLI sees
(CLI seeds and generated checkpoints), names the CLI commands of one
pass, and checks what a pass wrote.  Sizes are fixed here so that two
commits are always measured on the same work.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from time import perf_counter

import numpy as np

# Seed-derivation tags for the benchmark's own random streams.
_TAG_CHECKPOINT = 7101
_TAG_HELDOUT = 7102
_TAG_GRAD_PROBE = 7103

TRAIN_ITERATIONS = 500  # the CLI default; named so checks and rates use it
HELDOUT_PROFILES = 10_000
GAP_CASES = 20_000
EVAL_SAMPLES = 10_000
WORLD_DEVICES = 200
EPISODE_ROUNDS = 1_000
EPISODE_BATTERY = "1e12"  # meters: large enough that max_rounds always ends the episode


class CheckFailed(Exception):
    """A pass produced output that breaks one of the workload's invariants."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows) and rows[0] == header, f"{path.name}: header is not {header}")
    return rows[1:]


def _myerson_uniform_revenue(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Optimal-auction revenue per row for U[lower, upper] values, from the closed form."""
    phi = 2.0 * values - upper
    top2 = np.sort(phi, axis=1)[:, -2:]
    sold = top2[:, 1] >= 0.0
    return np.where(sold, (np.maximum(top2[:, 0], 0.0) + upper) / 2.0, 0.0)


def _checkpoint(pkg, seed: int, n_bidders: int, path: Path) -> str:
    """Write a freshly initialised checkpoint for ``n_bidders`` and return its path."""
    config = pkg.NetConfig(n_bidders=n_bidders)
    rng = np.random.default_rng([seed, _TAG_CHECKPOINT, n_bidders])
    pkg.save_params(pkg.init_params(config, rng), path)
    return str(path)


def _on_sale(counter: str):
    def hook(tracer, outcome):
        tracer.count(counter, outcome.winner is not None)
    return hook


def _on_round(tracer, result):
    tracer.count("sim.step.sold", result[1].outcome.winner is not None)


def trace_targets(pkg) -> list[tuple]:
    """Every public call the traced run wraps, at the module name its caller uses."""
    cli, sim, valuation = pkg.cli, pkg.sim, pkg.valuation
    sold = _on_sale("network.clear_hard.sold")
    return [
        (cli, "build_config", "config.build_config", None),
        (cli, "load_params", "checkpoint.load_params", None),
        (cli, "save_params", "checkpoint.save_params", None),
        (cli, "train", "network.train", None),
        (cli, "clear_hard", "network.clear_hard", sold),
        (cli, "spa_clear", "auction.spa_clear", None),
        (cli, "myerson_clear", "auction.myerson_clear", None),
        (cli, "ValuationProfile", "auction.ValuationProfile", None),
        (cli, "generate_world", "sim.generate_world", None),
        (cli, "run_episode", "sim.run_episode", None),
        (cli, "write_episode_csv", "sim.write_episode_csv", None),
        (cli, "write_episode_events", "sim.write_episode_events", None),
        (pkg.auction.ValuationDistribution, "sample", "auction.sample", None),
        (sim, "step", "sim.step", _on_round),
        (sim, "form_valuations", "sim.form_valuations", None),
        (sim, "clear_hard", "network.clear_hard", sold),
        (sim, "spa_clear", "auction.spa_clear", None),
        (sim, "ValuationProfile", "auction.ValuationProfile", None),
        (sim, "distance", "valuation.distance", None),
        (sim, "pile_similarity", "valuation.pile_similarity", None),
        (sim, "valuation_score", "valuation.valuation_score", None),
        (sim, "normalize_profile", "valuation.normalize_profile", None),
        (valuation, "ValuationProfile", "auction.ValuationProfile", None),
    ]


class Workload:
    """One seeded set of CLI commands, run as a pass and checked afterwards."""

    name = ""
    gauge_kernel = ""  # a key of gauge.KERNELS: the reference kernel shaped like this loop

    def __init__(self, pkg, seed: int, work: Path):
        self.pkg = pkg
        self.seed = seed
        self.work = work
        self.quality: dict[str, float] = {}

    def prepare(self) -> None:
        """Generate inputs from the seed, outside any timing."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        raise NotImplementedError

    def probe_spec(self) -> dict:
        """What a fresh interpreter prepares before the first pass (timed as set-up)."""
        raise NotImplementedError

    def unit_targets(self):
        """``(unit boundary, work window or None)`` as ``(owner, attr)`` pairs."""
        raise NotImplementedError

    def units_per_pass(self) -> int:
        raise NotImplementedError

    def check(self, stdouts: list[str]) -> None:
        """Raise :class:`CheckFailed` unless the pass's outputs hold; fill ``quality``."""
        raise NotImplementedError


class Train(Workload):
    name = "train"
    gauge_kernel = "batch"

    def commands(self):
        return [["train", "--dist-lower", "0", "--dist-upper", "1", "--seed", str(self.seed),
                 "--iterations", str(TRAIN_ITERATIONS), "--out", str(self.work / "model.ckpt")]]

    def output_files(self):
        return [self.work / "model.ckpt", self.work / "model.ckpt.loss.csv"]

    def probe_spec(self):
        return {"overrides": {"dist_lower": "0", "dist_upper": "1", "seed": str(self.seed)},
                "checkpoint": None, "world": False}

    def unit_targets(self):
        return ((self.pkg.auction.ValuationDistribution, "sample"), (self.pkg.cli, "train"))

    def units_per_pass(self):
        return TRAIN_ITERATIONS

    def check(self, stdouts):
        pkg = self.pkg
        _require(f"trained {TRAIN_ITERATIONS} iterations" in stdouts[0],
                 "train did not report every iteration")
        params = pkg.load_params(self.work / "model.ckpt")
        _require(bool(np.all(np.isfinite(params.weights()))),
                 "checkpoint slopes overflow")
        rows = _read_csv(self.work / "model.ckpt.loss.csv", ["iteration", "loss"])
        _require(len(rows) == TRAIN_ITERATIONS,
                 f"loss trace has {len(rows)} rows, expected {TRAIN_ITERATIONS}")
        for index, (iteration, value) in enumerate(rows):
            _require(int(iteration) == index and math.isfinite(float(value)),
                     f"loss trace row {index} is out of order or not finite")

        rng = np.random.default_rng([self.seed, _TAG_HELDOUT])
        values = rng.uniform(0.0, 1.0, (HELDOUT_PROFILES, params.n_bidders))
        dla = np.array([pkg.clear_hard(params, row).revenue for row in values])
        optimum = _myerson_uniform_revenue(values, 0.0, 1.0)
        ratio = float(dla.mean() / optimum.mean())
        # The optimum bounds expected revenue; allow four standard errors of
        # the paired difference for sampling.
        slack = 4.0 * float(np.std(dla - optimum)) / math.sqrt(HELDOUT_PROFILES) / optimum.mean()
        _require(ratio <= 1.0 + slack,
                 f"learned revenue beats the optimum: ratio {ratio:.6f} > 1 + {slack:.6f}")
        self.quality["revenue_ratio"] = ratio

    def grad_probe(self, repeats: int = 40) -> dict[str, float]:
        """Median ms per public ``grad`` and ``loss`` call at the training batch shape."""
        pkg = self.pkg
        config = pkg.NetConfig()
        rng = np.random.default_rng([self.seed, _TAG_GRAD_PROBE])
        params = pkg.init_params(config, rng)
        batch = rng.uniform(0.0, 1.0, (config.batch_size, config.n_bidders))
        result = {}
        for name, fn in (("grad", pkg.grad), ("loss", pkg.loss)):
            times = []
            for _ in range(repeats):
                t0 = perf_counter()
                fn(params, batch, config.kappa)
                times.append(perf_counter() - t0)
            result[name] = float(np.median(times)) * 1e3
        return result


class Clear(Workload):
    name = "clear"
    gauge_kernel = "clearing"

    def prepare(self):
        self.ckpt = _checkpoint(self.pkg, self.seed, 5, self.work / "clear.ckpt")

    def _common(self):
        return ["--checkpoint", self.ckpt, "--dist-lower", "0", "--dist-upper", "1",
                "--seed", str(self.seed)]

    def commands(self):
        return [["revenue-gap", *self._common(), "--cases", str(GAP_CASES), "--svg",
                 "--out", str(self.work / "gaps.csv")],
                ["eval", *self._common(), "--samples", str(EVAL_SAMPLES)]]

    def output_files(self):
        return [self.work / "gaps.csv", self.work / "gaps.svg"]

    def probe_spec(self):
        return {"overrides": {"dist_lower": "0", "dist_upper": "1", "seed": str(self.seed)},
                "checkpoint": self.ckpt, "world": False}

    def unit_targets(self):
        return ((self.pkg.cli, "clear_hard"), None)

    def units_per_pass(self):
        return GAP_CASES + EVAL_SAMPLES

    def check(self, stdouts):
        gap_out, eval_out = stdouts
        _require(f"cases: {GAP_CASES}" in gap_out, "revenue-gap reported another case count")
        rows = _read_csv(self.work / "gaps.csv", ["rank", "gap", "dla_revenue", "spa_revenue"])
        _require(len(rows) == GAP_CASES, f"gaps.csv has {len(rows)} rows, expected {GAP_CASES}")
        previous = -math.inf
        for index, (rank, gap, dla, spa) in enumerate(rows, start=1):
            _require(int(rank) == index, f"gaps.csv rank {rank} at row {index}")
            gap = float(gap)
            _require(gap == float(dla) - float(spa), f"gaps.csv row {index}: gap != dla - spa")
            _require(gap >= previous, f"gaps.csv row {index}: gaps not ascending")
            previous = gap
        svg = (self.work / "gaps.svg").read_text(encoding="utf-8")
        _require(svg.startswith("<svg") and "<polyline" in svg, "gaps.svg is not a gap curve")

        means = {}
        for line in eval_out.splitlines():
            match = re.fullmatch(r"(dla|spa|myerson)\s+(\S+)\s+(\S+)", line.strip())
            if match:
                means[match[1]] = (float(match[2]), float(match[3]))
        _require(set(means) == {"dla", "spa", "myerson"}, "eval did not print all three means")
        (spa, spa_sd), (opt, opt_sd) = means["spa"], means["myerson"]
        slack = 4.0 * math.hypot(spa_sd, opt_sd) / math.sqrt(EVAL_SAMPLES) + 1e-6
        _require(spa <= opt + slack, f"eval: spa {spa} beats the optimum {opt}")
        self.quality["revenue_ratio"] = means["dla"][0] / opt


class Episode(Workload):
    name = "episode"
    gauge_kernel = "pile"

    def prepare(self):
        self.ckpt = _checkpoint(self.pkg, self.seed, WORLD_DEVICES, self.work / "world.ckpt")

    def _overrides(self):
        return {"n_devices": str(WORLD_DEVICES), "max_rounds": str(EPISODE_ROUNDS),
                "battery": EPISODE_BATTERY, "seed": str(self.seed)}

    def commands(self):
        flags = [item for key, value in self._overrides().items()
                 for item in (f"--{key.replace('_', '-')}", value)]
        return [["simulate", "--mechanism", "dla", "--checkpoint", self.ckpt, *flags,
                 "--out", str(self.work / "episode.csv"),
                 "--events", str(self.work / "episode.jsonl")]]

    def output_files(self):
        return [self.work / "episode.csv", self.work / "episode.jsonl"]

    def probe_spec(self):
        return {"overrides": self._overrides(), "checkpoint": self.ckpt, "world": True}

    def unit_targets(self):
        return ((self.pkg.sim, "step"), (self.pkg.cli, "run_episode"))

    def units_per_pass(self):
        return EPISODE_ROUNDS

    def check(self, stdouts):
        _require(f"rounds completed: {EPISODE_ROUNDS}" in stdouts[0],
                 "max_rounds did not end the episode")
        rows = _read_csv(self.work / "episode.csv", list(self.pkg.sim.EPISODE_CSV_COLUMNS))
        _require(len(rows) == EPISODE_ROUNDS, f"episode.csv has {len(rows)} rows")
        events = (self.work / "episode.jsonl").read_text(encoding="utf-8").splitlines()
        _require(len(events) == len(rows), "event stream and CSV disagree on the round count")
        battery = math.inf
        revenue, valuations = [], []
        for index, (row, line) in enumerate(zip(rows, events)):
            event = json.loads(line)
            winner = int(row[2])
            _require(int(row[0]) == index == event["round"], f"round {index} out of order")
            _require(-1 <= winner < WORLD_DEVICES, f"round {index}: winner {winner} out of range")
            _require(event["winner"] == (None if winner == -1 else winner),
                     f"round {index}: event winner disagrees with the CSV")
            _require(float(row[7]) <= battery, f"round {index}: battery increased")
            battery = float(row[7])
            revenue.append(event["revenue"])
            valuations.append(event["valuations"])
        optimum = _myerson_uniform_revenue(np.array(valuations), 0.5, 1.0)
        self.quality["revenue_ratio"] = float(sum(revenue) / optimum.sum())


WORKLOADS = {cls.name: cls for cls in (Train, Clear, Episode)}
