"""Command-line experiment harness.

Subcommands: ``train`` a learned auction, ``revenue-gap`` it against the
second-price baseline, ``simulate`` a collection episode, and ``eval``
mean revenue against the analytic optimum.  Every command honors
``--seed``; outputs carry no timestamps, so identical invocations write
byte-identical files.  ``train``'s held-out check, ``revenue-gap`` and
``eval`` each draw their profiles in one call from a stream that derives
from the master seed through a fixed tag.  ``revenue-gap`` and ``eval``
clear one profile per :func:`clear_hard` call; ``train``'s held-out check
clears its profiles in one :func:`clear_batch` call.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .auction import ValuationProfile, myerson_clear, spa_batch, spa_clear
from .checkpoint import load_params, save_params
from .config import RUN_SCHEMA, SCHEMA, build_config
from .errors import (CheckpointShapeError, EpisodeExhaustedError, InputError,
                     TrainingDivergedError)
from .network import clear_batch, clear_hard, train
from .sim import (LearnedMechanism, SecondPriceMechanism, generate_world, run_episode,
                  write_episode_csv, write_episode_events)

# Seed-derivation tags for the profiles of train's held-out check, eval
# and revenue-gap; they differ from each other and from the simulator's.
_TAG_TRAIN_EVAL = 900001
_TAG_EVAL = 900002
_TAG_GAP = 900003

_HELDOUT_PROFILES = 10_000  # fresh profiles train checks its net on


def _add_override_flags(parser: argparse.ArgumentParser, schema) -> None:
    for name, key in schema.items():
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                            metavar="V", help=key.help)


def _overrides(args: argparse.Namespace, names) -> dict[str, str]:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _require_out(cfg) -> str:
    if not cfg.out:
        raise InputError("out must be a non-empty path: pass --out or set out= in the config")
    return cfg.out


def _load_for_market(path, n_bidders: int, market: str):
    """Load a checkpoint; of its shape, only the bidder count must match the market."""
    params = load_params(path)
    if params.n_bidders != n_bidders:
        raise CheckpointShapeError(f"checkpoint covers {params.n_bidders} bidders but {market}")
    return params


def _revenues(params, rows, dist=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row revenue of the learned auction, second price and, given ``dist``, the optimum.

    ``revenue-gap`` and ``eval`` clear their ``(S, N)`` profile matrix
    through here, one row per mechanism call.  The optimum's array is
    empty without ``dist``.
    """
    dla, spa, optimum = [], [], []
    for row in rows:
        dla.append(clear_hard(params, row).revenue)
        spa.append(spa_clear(row).revenue)
        if dist is not None:
            optimum.append(myerson_clear(ValuationProfile(row, dist)).revenue)
    return np.array(dla), np.array(spa), np.array(optimum)


def _cmd_train(args) -> int:
    cfg = build_config(args.config, _overrides(args, RUN_SCHEMA))
    out = _require_out(cfg)
    dist = cfg.world.distribution
    params, trace = train(cfg.net, dist)
    save_params(params, out)

    trace_path = out + ".loss.csv"
    with open(trace_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "loss"])
        for iteration, value in enumerate(trace.losses):
            writer.writerow([iteration, repr(float(value))])

    rng = np.random.default_rng([cfg.net.seed, _TAG_TRAIN_EVAL])
    heldout = dist.sample(rng, (_HELDOUT_PROFILES, cfg.net.n_bidders))
    dla = clear_batch(params, heldout)[1]
    spa = spa_batch(heldout)[1]
    print(f"trained {len(trace.losses)} iterations; final loss {trace.losses[-1]:.6f}")
    if trace.converged_at is not None:
        print(f"converged at iteration {trace.converged_at}")
    print(f"test revenue over {_HELDOUT_PROFILES} fresh profiles: "
          f"dla {dla.mean():.6f}, spa {spa.mean():.6f}")
    print(f"wrote checkpoint {out} and loss trace {trace_path}")
    return 0


def _cmd_revenue_gap(args) -> int:
    cfg = build_config(args.config, _overrides(args, RUN_SCHEMA))
    out = _require_out(cfg)
    params = _load_for_market(args.checkpoint, cfg.net.n_bidders,
                              f"the config expects {cfg.net.n_bidders}")

    rng = np.random.default_rng([cfg.net.seed, _TAG_GAP])
    cases = cfg.world.distribution.sample(rng, (cfg.cases, params.n_bidders))
    dla, spa, _ = _revenues(params, cases)
    gaps = dla - spa
    order = np.argsort(gaps, kind="stable")

    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rank", "gap", "dla_revenue", "spa_revenue"])
        for rank, idx in enumerate(order, start=1):
            writer.writerow([rank, repr(float(gaps[idx])), repr(float(dla[idx])),
                             repr(float(spa[idx]))])

    if args.svg:
        svg_path = str(Path(out).with_suffix(".svg")) if out.endswith(".csv") else out + ".svg"
        Path(svg_path).write_text(_gap_curve_svg(gaps[order]), encoding="utf-8")
        print(f"wrote gap curve {svg_path}")

    positive = float(np.mean(gaps > 0.0))
    print(f"cases: {cfg.cases}")
    print(f"mean dla revenue: {dla.mean():.6f}")
    print(f"mean spa revenue: {spa.mean():.6f}")
    print(f"mean gap: {gaps.mean():.6f}")
    print(f"positive gap fraction: {positive:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = build_config(args.config, _overrides(args, SCHEMA))
    out = _require_out(cfg)
    if args.mechanism == "spa":
        mechanism = SecondPriceMechanism()
    else:
        if args.checkpoint is None:
            raise InputError("simulate --mechanism dla needs --checkpoint")
        mechanism = LearnedMechanism(_load_for_market(
            args.checkpoint, cfg.world.n_devices, f"the world has {cfg.world.n_devices} devices"))

    state = generate_world(cfg.world)
    records = run_episode(state, mechanism, cfg.world.max_rounds)

    write_episode_csv(out, records)
    if args.events:
        write_episode_events(args.events, records)
        print(f"wrote event stream {args.events}")

    revenue = sum(record.outcome.revenue for record in records)
    flown = sum(record.distance_flown for record in records)
    print(f"rounds completed: {len(records)}")
    print(f"total revenue: {revenue:.6f}")
    print(f"total distance flown: {flown:.3f} m")
    print(f"battery remaining: {state.battery:.3f} m")
    print(f"wrote {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = build_config(args.config, _overrides(args, RUN_SCHEMA))
    params = _load_for_market(args.checkpoint, cfg.net.n_bidders,
                              f"the config expects {cfg.net.n_bidders}")
    samples = args.samples
    if samples < 1:
        raise InputError("--samples must be at least 1")

    rng = np.random.default_rng([cfg.net.seed, _TAG_EVAL])
    dist = cfg.world.distribution
    values = dist.sample(rng, (samples, cfg.net.n_bidders))
    revenue = dict(zip(("dla", "spa", "myerson"), _revenues(params, values, dist)))

    print(f"samples: {samples} (common random numbers)")
    print(f"{'mechanism':<10} {'mean_revenue':>14} {'stddev':>12}")
    for name, series in revenue.items():
        print(f"{name:<10} {series.mean():>14.6f} {series.std():>12.6f}")
    return 0


def _gap_curve_svg(sorted_gaps: np.ndarray) -> str:
    """Self-contained SVG polyline of the ascending gap curve."""
    width, height, margin = 640, 400, 50
    n = sorted_gaps.size
    lo = float(min(sorted_gaps.min(), 0.0))
    hi = float(max(sorted_gaps.max(), 0.0))
    if hi == lo:
        hi = lo + 1.0

    def sx(i: float) -> float:
        return margin + (width - 2 * margin) * (i / max(n - 1, 1))

    def sy(v: float) -> float:
        return height - margin - (height - 2 * margin) * ((v - lo) / (hi - lo))

    points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(sorted_gaps))
    zero_y = sy(0.0)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<line x1="{margin}" y1="{zero_y:.2f}" x2="{width - margin}" y2="{zero_y:.2f}" '
        f'stroke="#999" stroke-dasharray="4 4"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>\n'
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">case rank (sorted by gap)</text>\n'
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 16 {height / 2:.0f})">revenue gap</text>\n'
        f'</svg>\n'
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myerson-airnet",
        description="Learned-auction experiments for aerial data collection.")
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train a learned auction and save a checkpoint")
    train_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    _add_override_flags(train_p, RUN_SCHEMA)
    train_p.set_defaults(func=_cmd_train)

    gap_p = sub.add_parser("revenue-gap",
                           help="compare a checkpoint against second-price on fresh cases")
    gap_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    gap_p.add_argument("--checkpoint", metavar="PATH", required=True)
    gap_p.add_argument("--svg", action="store_true", help="also write a gap-curve SVG")
    _add_override_flags(gap_p, RUN_SCHEMA)
    gap_p.set_defaults(func=_cmd_revenue_gap)

    sim_p = sub.add_parser("simulate", help="run one collection episode and log it")
    sim_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    sim_p.add_argument("--checkpoint", metavar="PATH")
    sim_p.add_argument("--mechanism", choices=("dla", "spa"), default="dla")
    sim_p.add_argument("--events", metavar="PATH", help="also write a JSONL event stream")
    _add_override_flags(sim_p, SCHEMA)
    sim_p.set_defaults(func=_cmd_simulate)

    eval_p = sub.add_parser("eval",
                            help="mean revenue of dla, spa, and the analytic optimum")
    eval_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    eval_p.add_argument("--checkpoint", metavar="PATH", required=True)
    eval_p.add_argument("--samples", type=int, default=10_000)
    _add_override_flags(eval_p, RUN_SCHEMA)
    eval_p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflowing slope is a valid net: its transforms are +-inf, not warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, EpisodeExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
